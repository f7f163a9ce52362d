"""The deformed function algebra on 2x2 matrices and its corepresentations.

A small rewriting engine normal-orders words in finitely presented algebras
whose coefficients are truncated series.  On top of it sit the deformed
SL(2) function algebra (with and without the determinant identification),
the deformed plane and oscillator module algebras, their tensor squares, and
the mixed module-plus-group algebras used for covariance and for building
representation matrices of every integer and half-integer spin.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .reps import universal_r_rep
from .scalar import (SCALARS, AlgebraMap, HSeries, HalfInt, SeriesCombination,
                     _numerator_product, _over_one_denominator, _series_of_sums,
                     add_into, combine, sqrt_ratio, weights)
from .su2data import fact
from .symplecton import osc_symplecton_poly

_MAX_REWRITE_DEPTH = 100
_UNIT = {(0, 1): 1}     # the numerators of the series 1


def _nonzero(sums):
    """[(word, numerators)] from {word: numerators}, dropping the words whose
    numerators are all zero."""
    return [(w, n) for w, n in sums.items() if any(n.values())]


class Presentation:
    """Generators with adjacent-pair rewrite rules over truncated series.

    Rules are keyed by an ordered pair of generator indices; the word g1 g2
    rewrites to the right-hand side, a dict {word: HSeries} whose
    coefficients are integer h-polynomials.  Construction trusts the rules
    otherwise; check_confluence, run by the suite and the tests, checks that
    every overlap g1 g2 g3 reduces to one normal form along both routes.
    `starts` lists where each block begins; _side_by_side sets it.

    A word is normal-ordered one letter at a time, and a product of elements
    one block at a time; tables of both hold the integer numerators of normal
    forms.  Termination is not checked either: a rule set that does not
    terminate nests table entries without bound, and _times_letter stops it.
    """

    def __init__(self, name, gens, rules, order):
        self.name = name
        self.gens = list(gens)
        self.index = {g: i for i, g in enumerate(self.gens)}
        self.order = order
        if any(c.den != 1 for rhs in rules.values() for c in rhs.values()):
            raise ValueError(f"rule coefficients of {name} must be integer h-polynomials")
        self.rules = rules
        self.starts = (0,)
        self._letter_products = {}
        self._block_words = {}

    def __repr__(self):
        return f"Presentation({self.name!r}, order={self.order})"

    def normal_form(self, terms):
        """Rewrite {word: HSeries} until no rule applies; returns a new dict.
        Raises RuntimeError if table entries nest deeper than _MAX_REWRITE_DEPTH."""
        nums, den = _over_one_denominator(terms)
        sums = {}
        for word, num in nums:
            for w, n in self._block_word(word):
                _numerator_product(num, n, self.order, sums.setdefault(w, {}))
        return _series_of_sums(sums, den, self.order)

    def _times_word(self, terms, word, depth=0):
        """The normal words [(word, numerators)] times word, one letter at a
        time; depth counts the table entries under construction above."""
        for letter in word:
            sums = {}
            for w, num in terms:
                for w2, n2 in self._times_letter(w, letter, depth):
                    _numerator_product(num, n2, self.order, sums.setdefault(w2, {}))
            terms = _nonzero(sums)
        return terms

    def _times_letter(self, word, letter, depth):
        """The normal word times one letter, [(word, numerators)].  Only the
        new last pair can need a rule; its right-hand side goes onto word[:-1]
        one letter at a time.  Each such product is built once, one nesting
        level below the entry that asks for it.  Every loop at one level is
        finite, so a rule set that does not terminate nests without bound;
        building past _MAX_REWRITE_DEPTH levels raises RuntimeError."""
        rhs = self.rules.get((word[-1], letter)) if word else None
        if rhs is None:
            return [(word + (letter,), _UNIT)]
        got = self._letter_products.get((word, letter))
        if got is None:
            if depth >= _MAX_REWRITE_DEPTH:
                raise RuntimeError(
                    f"rewriting in {self.name} exceeded the nesting depth limit of "
                    f"{_MAX_REWRITE_DEPTH} at the word "
                    f"{'*'.join(self.pretty_word(word + (letter,)))}")
            sums = {}
            for rw, rc in rhs.items():
                for w, num in self._times_word([(word[:-1], rc.num)], rw, depth + 1):
                    _numerator_product(num, _UNIT, self.order, sums.setdefault(w, {}))
            got = self._letter_products[(word, letter)] = _nonzero(sums)
        return got

    def block_product(self, terms1, terms2):
        """Normal form of a product of sums {word: HSeries}, block by block: a
        normal word is its block parts in block order, so a pair of terms needs
        only each block's u1 u2 in normal form; sums run over integer numerators."""
        (nums1, den1), (nums2, den2) = self._by_blocks(terms1), self._by_blocks(terms2)
        order, block_word = self.order, self._block_word
        acc = {}
        for parts1, a in nums1:
            for parts2, b in nums2:
                out = [((), _numerator_product(a, b, order, {}))]
                for u1, u2 in zip(parts1, parts2):
                    bws = block_word(u1 + u2)
                    out = [(w + bw, n if bn == _UNIT else _numerator_product(n, bn, order, {}))
                           for w, n in out for bw, bn in bws]
                for w, n in out:
                    sums = acc.setdefault(w, {})
                    for key, c in n.items():
                        sums[key] = sums.get(key, 0) + c
        return _series_of_sums(acc, den1 * den2, order)

    def _by_blocks(self, terms):
        """([(block parts, numerators)], den); normal-orders words out of block order."""
        blocks = [[bisect_right(self.starts, i) for i in w] for w in terms]
        if any(b != sorted(b) for b in blocks):
            return self._by_blocks(self.normal_form(terms))
        nums, den = _over_one_denominator(terms)
        cuts = ([bisect_left(b, k) for k in range(1, len(self.starts) + 2)] for b in blocks)
        return [([w[lo:hi] for lo, hi in zip(c, c[1:])], n) for (w, n), c in zip(nums, cuts)], den

    def _block_word(self, word):
        """The normal form of a word, [(word, numerators)], built once."""
        got = self._block_words.get(word)
        if got is None:
            got = self._block_words[word] = self._times_word([((), _UNIT)], word)
        return got

    def check_confluence(self):
        """All one-letter overlaps of rule pairs resolve identically."""
        keys = self.rules.keys()
        for (a, b) in keys:
            for (b2, c) in keys:
                if b2 != b:
                    continue
                left, right = {}, {}
                for rw, rc in self.rules[(a, b)].items():
                    add_into(left, rw + (c,), rc)
                for rw, rc in self.rules[(b, c)].items():
                    add_into(right, (a,) + rw, rc)
                if self.normal_form(left) != self.normal_form(right):
                    ga, gb, gc = self.gens[a], self.gens[b], self.gens[c]
                    raise ValueError(f"presentation {self.name} is not confluent "
                                     f"on the overlap {ga} {gb} {gc}")

    def pretty_word(self, word):
        """Generator names of a word, runs of a letter written as powers."""
        out = []
        i = 0
        while i < len(word):
            k = i
            while k < len(word) and word[k] == word[i]:
                k += 1
            g = self.gens[word[i]]
            out.append(g if k - i == 1 else f"{g}^{k - i}")
            i = k
        return out

    def gen(self, name):
        return NCElement(self, {(self.index[name],): HSeries.one(self.order)})

    def zero(self):
        return NCElement(self, {})

    def one(self):
        return NCElement(self, {(): HSeries.one(self.order)})


class NCElement(SeriesCombination):
    """Normal-ordered element {word: HSeries}; its space is the presentation."""

    __slots__ = ()
    unit_keys = ((),)
    pres = property(lambda self: self.space)
    order = property(lambda self: self.space.order)

    @staticmethod
    def letters(word):
        return word

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._like(self.pres.block_product(self.terms, other.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            cs = str(c).split(" (mod")[0]
            if " " in cs:
                cs = f"({cs})"
            body = "*".join(self.pres.pretty_word(w))
            if not body:
                parts.append(cs)
            elif cs == "1":
                parts.append(body)
            else:
                parts.append(f"{cs}*{body}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        return {"presentation": self.pres.name,
                "terms": [{"word": [self.pres.gens[i] for i in w],
                           "coeff": c.to_json()}
                          for w, c in sorted(self.terms.items())]}


def embed(el, target, shift=0):
    """el in target, letters moved up by shift: a block's embedding only re-indexes."""
    return target.zero()._like({tuple(i + shift for i in el.letters(w)): c
                                for w, c in el.terms.items()})


def letter_map(source, images, antihom=False):
    """The algebra map (antimap if antihom) on source sending each generator,
    by name, to its image."""
    return AlgebraMap({source.index[g]: img for g, img in images.items()}, antihom)


# ----------------------------------------------------------------------
# presentations


def _group_rules(order, quotient):
    h1 = HSeries.h_power(1, order)
    h2 = HSeries.h_power(2, order)
    one = HSeries.one(order)
    X, Y, V, U = range(4)
    rules = {
        (Y, X): {(X, Y): one, (X, V): -h1, (Y, V): h1},
        (V, X): {(X, V): one, (V, V): h1},
        (V, Y): {(Y, V): one, (V, V): h1},
        (U, X): {(X, U): one, (): h1, (X, X): -h1},
        (U, Y): {(Y, U): one, (): h1, (Y, Y): -h1},
    }
    if quotient:
        rules[(U, V)] = {(X, Y): one, (X, V): -h1, (): -one}
        rules[(V, U)] = {(X, Y): one, (Y, V): h1, (V, V): h2, (): -one}
    else:
        rules[(U, V)] = {(V, U): one, (X, V): -h1, (Y, V): -h1, (V, V): -h2}
    return rules


GROUP_GENS = ("x", "y", "v", "u")


@lru_cache(maxsize=None)
def group_algebra(order, quotient=True):
    name = "deformed-sl2-functions" if quotient else "deformed-gl2-functions"
    return Presentation(name, GROUP_GENS, _group_rules(order, quotient), order)


@lru_cache(maxsize=None)
def free_words(pres):
    """The letters of pres with no rules at all."""
    return Presentation(f"free-{pres.name}", pres.gens, {}, pres.order)


def free_group_words(order):
    """The four matrix letters with no relations at all."""
    return free_words(group_algebra(order, False))


def relation_words(pres, free):
    """Each rule g1 g2 -> rhs of pres as the element g1 g2 - rhs of free, a
    presentation with the same letters and no rules; keyed by the pair."""
    one = HSeries.one(pres.order)
    return {pair: NCElement(free, {pair: one}) - NCElement(free, rhs)
            for pair, rhs in pres.rules.items()}


def _pair_name(pres, pair):
    return "".join(pres.gens[i] for i in pair)


def _violations(free, words, f):
    """Names of the relation words that f does not send to zero."""
    return [_pair_name(free, pair) for pair, w in words.items() if not f(w).is_zero()]


@lru_cache(maxsize=None)
def plane_algebra(order):
    h1 = HSeries.h_power(1, order)
    one = HSeries.one(order)
    rules = {(1, 0): {(0, 1): one, (1, 1): h1}}  # xi eta = eta xi + h xi^2
    return Presentation("deformed-plane", ("eta", "xi"), rules, order)


@lru_cache(maxsize=None)
def osc_algebra(order):
    h1 = HSeries.h_power(1, order)
    one = HSeries.one(order)
    # abar a = a abar + 1 - h a^2
    rules = {(1, 0): {(0, 1): one, (): one, (0, 0): -h1}}
    return Presentation("deformed-oscillator", ("a", "abar"), rules, order)


def _side_by_side(name, blocks, order):
    """Blocks of (generator names, rules) side by side: each block's rules
    move to its letters, and a later block's letters commute past an
    earlier block's."""
    one = HSeries.one(order)
    gens, rules, starts = [], {}, []
    for names, block_rules in blocks:
        n = len(gens)
        starts.append(n)
        for (a, b), rhs in block_rules.items():
            rules[(a + n, b + n)] = {tuple(i + n for i in w): c for w, c in rhs.items()}
        for later in range(n, n + len(names)):
            rules.update({(later, earlier): {(earlier, later): one} for earlier in range(n)})
        gens.extend(names)
    pres = Presentation(name, gens, rules, order)
    pres.starts = tuple(starts)
    return pres


# each module algebra and its row letters (r0, r1), which the coaction
# sends to the row vector (r0, r1) times the matrix of letters
_MODULES = {"plane": (plane_algebra, ("xi", "eta")), "osc": (osc_algebra, ("a", "abar"))}


@lru_cache(maxsize=None)
def mixed_algebra(module, order):
    """Module coordinates adjoined to the group, the two blocks commuting."""
    mod = _MODULES[module][0](order)
    return _side_by_side(f"{module}-with-group",
                         [(mod.gens, mod.rules), (GROUP_GENS, _group_rules(order, True))],
                         order)


def _group_copies(copies, order, quotient):
    return [(tuple(g + str(c) for g in GROUP_GENS), _group_rules(order, quotient))
            for c in range(1, copies + 1)]


@lru_cache(maxsize=None)
def tensor_square(order, quotient=True):
    return _side_by_side("group-tensor-square", _group_copies(2, order, quotient), order)


@lru_cache(maxsize=None)
def tensor_cube(order):
    """The gl2 cube, where coassociativity is checked."""
    return _side_by_side("group-tensor-cube", _group_copies(3, order, False), order)


# ----------------------------------------------------------------------
# Hopf structure


LAYOUT = (("x", "u"), ("v", "y"))


def as_matrix(images):
    """The images of the four letters, laid out as the matrix of letters."""
    return [[images[g] for g in row] for row in LAYOUT]


def matrix_gens(pres, suffix=""):
    """The fundamental corepresentation matrix LAYOUT."""
    return as_matrix({g: pres.gen(g + suffix) for g in GROUP_GENS})


def _nc_matmul(a, b, pres):
    """The product of two matrices, lists of rows, over pres."""
    return [[combine(((1, row[k] * b[k][j]) for k in range(len(b))), pres.zero())
             for j in range(len(b[0]))] for row in a]


def determinant(pres):
    """x y - u v - h x v, the central group-like combination."""
    g = pres.gen
    h1 = HSeries.h_power(1, pres.order)
    return g("x") * g("y") - g("u") * g("v") - (g("x") * g("v")).scale(h1)


def coproduct_images(target, left="1", right="2"):
    """Images of the four letters under matrix comultiplication, T1 T2."""
    t12 = _nc_matmul(matrix_gens(target, left), matrix_gens(target, right), target)
    return {g: t12[i][k] for i, row in enumerate(LAYOUT) for k, g in enumerate(row)}


def counit_images(target):
    return {"x": target.one(), "y": target.one(),
            "u": target.zero(), "v": target.zero()}


def antipode_images(pres):
    """The inverse-matrix entries: S[[x,u],[v,y]] = [[y-hv, -u-h(y-x)+h^2 v], [-v, x+hv]]."""
    g = pres.gen
    h1 = HSeries.h_power(1, pres.order)
    h2 = HSeries.h_power(2, pres.order)
    return {
        "x": g("y") - g("v").scale(h1),
        "u": -g("u") - (g("y") - g("x")).scale(h1) + g("v").scale(h2),
        "v": -g("v"),
        "y": g("x") + g("v").scale(h1),
    }


def slh2_hopf_suite(order):
    """Full bialgebra / Hopf verification; {check: (ok, detail)}.

    Delta, epsilon and S are applied to the relation words of the rules,
    written in the free algebra on the four letters.  Delta is an algebra
    map only into the quotient tensor square: the relations carry constant
    terms and hold only where det = 1.
    """
    out = {}
    try:
        quo = group_algebra(order, True)
        full = group_algebra(order, False)
        quo.check_confluence()
        full.check_confluence()
    except ValueError as err:
        return {"confluent_rewriting": (False, str(err))}
    out["confluent_rewriting"] = (True, "both presentations confluent")

    # With constant terms in the relations the determinant is central only
    # modulo the ideal it cuts out; the commutators factor exactly through
    # det - 1, which makes the quotient consistent.
    det = determinant(full)
    h1 = HSeries.h_power(1, order)
    cof = {"x": full.gen("v").scale(h1),
           "y": full.gen("v").scale(h1),
           "v": full.zero(),
           "u": (full.gen("x") + full.gen("y")
                 + full.gen("v").scale(h1)).scale(h1)}
    dm1 = det - full.one()
    ok = all(det.commutator(full.gen(g)) == cof[g] * dm1 for g in GROUP_GENS)
    out["determinant_commutators"] = (
        ok, "[det, gen] = cofactor (det - 1) with cofactors hv, hv, 0, h(x+y+hv)"
        if ok else "determinant commutators do not factor through det - 1")
    out["determinant_is_one"] = (determinant(quo) == quo.one(),
                                 "determinant rewrites to 1 in the quotient")

    t2 = tensor_square(order, False)
    t2q = tensor_square(order, True)
    delta = coproduct_images(t2)
    comul = letter_map(full, delta)
    comul_q = letter_map(full, coproduct_images(t2q))
    free = free_group_words(order)
    rels = relation_words(full, free)
    bad = _violations(free, rels, comul_q)
    out["coproduct_respects_relations"] = (not bad, f"violations: {bad}" if bad
                                           else "all six relations preserved")

    # Like centrality, group-likeness of the determinant holds only modulo
    # the determinant ideal of each tensor factor; the deviation factors
    # exactly through det - 1 on either side.
    det12 = comul(det)
    det_l, det_r = embed(det, t2), embed(det, t2, t2.starts[1])
    gt = t2.gen
    h2 = HSeries.h_power(2, order)
    cof_r = (gt("v1") * gt("v1")).scale(h2)
    cof_l = (gt("y2") * gt("v2") + (gt("v2") * gt("v2")).scale(h1)).scale(h1)
    ok = (det12 - det_l * det_r
          == -(cof_r * (det_r - t2.one())) - (cof_l * (det_l - t2.one())))
    ok = ok and comul_q(det) == t2q.one()
    out["determinant_grouplike"] = (
        ok,
        "det x det minus the comultiplied determinant factors through"
        " det - 1 on each side and collapses to 1 in the quotient")

    eps = counit_images(quo)
    bad = _violations(free, rels, letter_map(full, eps))
    out["counit_respects_relations"] = (not bad, f"violations: {bad}" if bad
                                        else "counit kills all six relations")

    left = letter_map(t2, {**{n + "1": eps[n] for n in GROUP_GENS},
                           **{n + "2": quo.gen(n) for n in GROUP_GENS}})
    right = letter_map(t2, {**{n + "1": quo.gen(n) for n in GROUP_GENS},
                            **{n + "2": eps[n] for n in GROUP_GENS}})
    ok = all(left(delta[g]) == quo.gen(g) == right(delta[g]) for g in GROUP_GENS)
    out["counit_axiom"] = (ok, "counit is a two-sided identity for comultiplication")

    cube = tensor_cube(order)
    d12 = coproduct_images(cube, "1", "2")
    d23 = coproduct_images(cube, "2", "3")
    lhs = letter_map(t2, {**{n + "1": d12[n] for n in GROUP_GENS},
                          **{n + "2": cube.gen(n + "3") for n in GROUP_GENS}})
    rhs = letter_map(t2, {**{n + "1": cube.gen(n + "1") for n in GROUP_GENS},
                          **{n + "2": d23[n] for n in GROUP_GENS}})
    ok = all(lhs(delta[g]) == rhs(delta[g]) for g in GROUP_GENS)
    out["coassociativity"] = (ok, "both iterated comultiplications agree")

    s_img = antipode_images(quo)
    antipode = letter_map(quo, s_img, antihom=True)
    bad = _violations(free, relation_words(quo, free), antipode)
    out["antipode_antihomomorphism"] = (not bad, f"violations: {bad}" if bad
                                        else "reversed substitution kills all relations")

    t, st = matrix_gens(quo), as_matrix(s_img)
    ident = [[quo.one(), quo.zero()], [quo.zero(), quo.one()]]
    ok = _nc_matmul(st, t, quo) == ident == _nc_matmul(t, st, quo)
    out["antipode_axiom"] = (ok, "the antipode matrix is a two-sided inverse")
    return out


# ----------------------------------------------------------------------
# exchange-matrix relations


def exchange_matrix(order):
    """The universal R on the square of the fundamental representation.

    Basis order e1 x e1, e1 x e2, e2 x e1, e2 x e2 with e1 the highest
    weight vector, matching the row order of the matrix of letters; reps
    lists the weights ascending, so both indices are reversed.
    """
    r = universal_r_rep(HalfInt(1), HalfInt(1), order)
    return [[r.get(3 - i, 3 - k) for k in range(4)] for i in range(4)]


def _exchange_entries(pres, r):
    """Entries of R T1 T2 - T2 T1 R over the given presentation."""
    t = matrix_gens(pres)
    t1 = [[t[a // 2][b // 2] if a % 2 == b % 2 else pres.zero()
           for b in range(4)] for a in range(4)]
    t2 = [[t[a % 2][b % 2] if a // 2 == b // 2 else pres.zero()
           for b in range(4)] for a in range(4)]
    lhs = _nc_matmul(r, _nc_matmul(t1, t2, pres), pres)
    rhs = _nc_matmul(_nc_matmul(t2, t1, pres), r, pres)
    return [[lhs[i][j] - rhs[i][j] for j in range(4)] for i in range(4)]


def rtt_check(order):
    """The exchange relations both follow from and recover the presentation.

    (a) in the unit-determinant quotient every entry of R T1 T2 - T2 T1 R
        normal-orders to zero (the relations have constant terms, so the
        identity is exact only there);
    (b) in the free algebra every entry is a series combination of the six
        relation words plus a series multiple of det - 1;
    (c) eliminating over those combinations recovers every relation, modulo
        det - 1, as a series combination of the sixteen entries.
    """
    out = {}
    rmat = exchange_matrix(order)
    entries = _exchange_entries(group_algebra(order, True), rmat)
    bad = [(i, j) for i in range(4) for j in range(4) if not entries[i][j].is_zero()]
    out["entries_vanish"] = (not bad, f"nonzero entries at {bad}" if bad
                             else "all sixteen entries rewrite to zero")

    free = free_group_words(order)
    full = group_algebra(order, False)
    rels = relation_words(full, free)
    # det - 1 in the normal words of the full algebra, so no relation word meets it
    dm1 = embed(determinant(full), free) - free.one()
    zero = HSeries.zero(order)

    free_entries = _exchange_entries(free, rmat)
    rows = []
    ok = True
    detail = "entries decompose over the six relations and det - 1"
    for i in range(4):
        for j in range(4):
            e = free_entries[i][j]
            # a relation word holds its rule pair with coefficient 1 and
            # otherwise only normal words, so one pass clears every pair
            comb = [e.terms.get(pair, zero) for pair in rels]
            e = e - combine(zip(comb, rels.values()), free.zero())
            cdet = -e.terms.get((), zero)
            if e != dm1.scale(cdet):
                ok = False
                detail = f"entry ({i},{j}) leaves residue {e}"
            rows.append(comb)
    out["entries_span_relations"] = (ok, detail)

    # Gaussian elimination over the series ring: a pivot needs a coefficient
    # that is invertible, i.e. nonzero at h^0.
    pivot_rows = set()
    pivoted = set()
    for col in range(len(rels)):
        sel = None
        for r, row in enumerate(rows):
            if r not in pivot_rows and row[col].valuation() == 0:
                sel = r
                break
        if sel is None:
            continue
        inv = rows[sel][col].invert_unit()
        rows[sel] = [c * inv for c in rows[sel]]
        for r in range(len(rows)):
            if r != sel and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[sel])]
        pivot_rows.add(sel)
        pivoted.add(col)
    missing = [_pair_name(free, pair) for col, pair in enumerate(rels)
               if col not in pivoted]
    out["each_relation_recovered"] = (
        not missing,
        f"no invertible combination reaches: {missing}" if missing else
        "every relation is a series combination of the entries, modulo det - 1")
    return out


# ----------------------------------------------------------------------
# covariance of the module algebras


def _coaction(module, order):
    """The mixed algebra of a module, the indices (i0, i1) of its row letters
    (r0, r1), and the coaction r0 -> r0 x + r1 v, r1 -> r0 u + r1 y.

    The module block comes first in the mixed algebra, so its letters keep
    their indices and the coaction applies to module elements as they are.
    """
    pres = mixed_algebra(module, order)
    rows = _MODULES[module][1]
    primed = _nc_matmul([[pres.gen(g) for g in rows]], matrix_gens(pres), pres)[0]
    indices = tuple(pres.index[g] for g in rows)
    return pres, indices, AlgebraMap(dict(zip(indices, primed)))


def covariance_check(order):
    """The coaction sends the one rule word of each module algebra to zero:
    the transformed coordinates satisfy the same deformed relation, with the
    same deformation parameter."""
    out = {}
    for module, label in (("plane", "plane"), ("osc", "oscillator")):
        mod = _MODULES[module][0](order)
        (word,) = relation_words(mod, free_words(mod)).values()
        res = _coaction(module, order)[2](word)
        out[label] = (res.is_zero(), f"transformed {label} relation holds"
                      if res.is_zero() else f"residue {res}")
    return out


# ----------------------------------------------------------------------
# spin bases of the module algebras and representation matrices


def _plane_norm(j, m):
    """Normalization 1/sqrt((j+m)!(j-m)!) of the plane weight basis."""
    return sqrt_ratio(1, fact(j + m) * fact(j - m))


def plane_basis(j, m, order):
    """Weight basis element of the deformed plane at (j, m):

      xi^(j+m) (eta - h(j+m) xi)(eta - h(j+m-1) xi) ... (eta - h(2m+1) xi)

    normalized by 1/sqrt((j+m)!(j-m)!); plane_forms_check compares it with
    a second closed form.
    """
    j, m = HalfInt.of(j), HalfInt.of(m)
    pres = plane_algebra(order)
    eta, xi = pres.gen("eta"), pres.gen("xi")
    jp = (j + m).as_int()
    out = xi ** jp
    for arg in range(jp, (2 * m).as_int(), -1):
        out = out * (eta + xi.scale(HSeries.h_power(1, order, -arg)))
    return out.scale(_plane_norm(j, m))


def plane_forms_check(j, order):
    """At every weight of spin j, plane_basis equals the second closed form
    eta (eta + h xi) ... (eta + (j-m-1) h xi) xi^(j+m), equally normalized.

    They agree because xi eta = eta xi + h xi^2, the relation that
    covariance_check verifies for the primed pair.
    """
    j = HalfInt.of(j)
    pres = plane_algebra(order)
    eta, xi = pres.gen("eta"), pres.gen("xi")
    for m in weights(j):
        second = pres.one()
        for i in range((j - m).as_int()):
            second = second * (eta + xi.scale(HSeries.h_power(1, order, i)))
        second = (second * xi ** (j + m).as_int()).scale(_plane_norm(j, m))
        if plane_basis(j, m, order) != second:
            return False, f"plane basis forms disagree at j={j}, m={m}"
    return True, f"both plane basis forms agree at j={j}"


def dfunction(j, order, route="plane"):
    """Representation matrix of spin j: {(row weight, column weight): element}.

    Each weight-basis element f_k of a module algebra is mapped into the
    mixed algebra twice: letter for letter, and through the primed
    coordinates (r0', r1') = (r0 x + r1 v, r0 u + r1 y) of its row pair
    (r0, r1).  Re-expanding the primed images over the unprimed ones
    triangularly solves for the matrix entries; the expansion must terminate
    with zero residue.  The two routes, plane module (r0, r1) = (xi, eta) or
    oscillator module (a, abar), differ only in these inputs and must agree.
    """
    j = HalfInt.of(j)
    try:
        module, basis_of = {"plane": ("plane", plane_basis),
                            "symplecton": ("osc", osc_symplecton_poly)}[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}") from None
    family = {k: basis_of(j, k, order) for k in weights(j)}
    pres, (i0, i1), outer = _coaction(module, order)
    # a normal word has its module letters first, in ascending order
    top = {k: tuple(sorted((i0,) * (j + k).as_int() + (i1,) * (j - k).as_int()))
           for k in weights(j)}
    basis = {k: embed(f, pres) for k, f in family.items()}
    transformed = {m: outer(f) for m, f in family.items()}
    pivot = {k: basis[k].terms[top[k]].invert_unit() for k in weights(j)}

    group, g0 = group_algebra(order, True), pres.starts[1]
    dmat = {}
    for m in weights(j):
        rest = transformed[m]
        for k in weights(j):
            n = len(top[k])
            entry = NCElement(group, {tuple(i - g0 for i in w[n:]): c
                                      for w, c in rest.terms.items()
                                      if w[:n] == top[k] and all(i >= g0 for i in w[n:n + 1])})
            dmat[(k, m)] = entry.scale(pivot[k])
            rest = rest - basis[k] * embed(dmat[(k, m)], pres, g0)
        if not rest.is_zero():
            raise RuntimeError(f"matrix solve left a residue at spin {j}, column {m}")
    return dmat


def dfunction_routes_agree(j, order):
    """Both module constructions give the same representation matrix."""
    return dfunction(j, order, "plane") == dfunction(j, order, "symplecton")


def dfunction_coalgebra_check(j, order):
    """Entries comultiply matrix-style and counit to the identity matrix."""
    j = HalfInt.of(j)
    dmat = dfunction(j, order)
    quo = group_algebra(order, True)
    t2 = tensor_square(order, True)
    comul = letter_map(quo, coproduct_images(t2))
    counit = letter_map(quo, counit_images(quo))
    left = {key: embed(e, t2) for key, e in dmat.items()}
    right = {key: embed(e, t2, t2.starts[1]) for key, e in dmat.items()}
    for k in weights(j):
        for m in weights(j):
            rhs = combine(((1, left[(k, t)] * right[(t, m)]) for t in weights(j)), t2.zero())
            if comul(dmat[(k, m)]) != rhs:
                return False, f"comultiplication fails at entry ({k},{m})"
            want = quo.one() if k == m else quo.zero()
            if counit(dmat[(k, m)]) != want:
                return False, f"counit fails at entry ({k},{m})"
    return True, "entries form a matrix coalgebra"
