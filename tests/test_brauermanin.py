import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conicbundles import brauermanin, exactnum, localsolve
from conicbundles.brauermanin import (
    AdelicFiberPoint,
    BrauerManinError,
    LocalParameter,
    global_point,
    invariant_vector,
    local_invariant,
    obstruction_scan,
    pairing,
    quotient_generators,
)
from conicbundles.exactnum import (
    Place,
    REAL_PLACE,
    hilbert,
    valuation,
)
from conicbundles.localsolve import padic_soluble
from conicbundles.pencil import ConicBundleData, brauer_group, torsor_system
from reference import (brute_hilbert, brute_kernel, local_class,
                       random_classes, span, trial_primes)

FLAG = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))


def test_local_invariant_zero_vector():
    for t in (Fraction(1, 2), 7, Fraction(-3, 4)):
        for v in (REAL_PLACE, Place(2), Place(5)):
            assert local_invariant(FLAG, (0, 0, 0, 0), t, v) == 0


def test_local_invariant_real():
    # positive square classes are norms everywhere on the real line
    assert local_invariant(FLAG, (1, 1, 0, 0), Fraction(1, 2), REAL_PLACE) == 0
    # a negative class contributes left of its pole
    neg = ConicBundleData(e=(0, 1), a=(-1, -1))
    assert local_invariant(neg, (1, 0), -1, REAL_PLACE) == 1
    assert local_invariant(neg, (1, 0), 5, REAL_PLACE) == 0
    assert local_invariant(neg, (1, 1), Fraction(1, 2), REAL_PLACE) == 1


def test_local_invariant_against_brute_hilbert():
    for t in (Fraction(1, 2), 12, Fraction(7, 3)):
        for p in (3, 5):
            expect = 0
            for e in FLAG.e[:2]:
                if brute_hilbert(5, t - e, p) == -1:
                    expect ^= 1
            assert local_invariant(FLAG, (1, 1, 0, 0), t, Place(p)) == expect
    # pin the hilbert factors of the obstruction witness
    assert brute_hilbert(5, 10, 5) == hilbert(5, 10, Place(5)) == -1
    assert brute_hilbert(5, 9, 5) == hilbert(5, 9, Place(5)) == 1
    assert local_invariant(FLAG, (0, 0, 1, 1), 12, Place(5)) == 1
    # t beyond trial division: the oracle reads t - e_i mod 5^3, which lies
    # in the same 5-adic square class because t - e_i is a 5-adic unit
    N = 1000003 * 1000033
    pair = ConicBundleData(e=(0, 1), a=(5, 5))
    expect = 0
    for e in pair.e:
        if brute_hilbert(5, (N - e) % 125, 5) == -1:
            expect ^= 1
    assert local_invariant(pair, (1, 1), N, Place(5)) == expect == 1
    # seeded bundles with 2, 3, 5 and 7 in the denominators of the e_i,
    # read at exact t, many with p in the denominator or p-adically close
    # to a pole, against the brute-force symbol of every selected fibre
    rng = random.Random(29)
    seen = Counter()
    for data in _scan_bundles(rng, 5):
        for p in (2, 3, 5, 7):
            for _ in range(40):
                bits = tuple(rng.randrange(2) for _ in range(data.r))
                if rng.randrange(2):
                    t = Fraction(rng.randint(-99, 99),
                                 rng.choice((1, 2, 3, 7, p, p * p)))
                else:
                    t = rng.choice(data.e) + Fraction(
                        rng.randint(1, 30), rng.choice((1, 7))) \
                        * Fraction(p) ** rng.randint(-2, 3)
                if t in data.e:
                    continue
                sym = _oracle_symbols(data, range(data.r), t, p)
                expect = sum(sym[i] == -1 for i in range(data.r)
                             if bits[i]) % 2
                assert local_invariant(data, bits, t, Place(p)) == expect, \
                    (data, bits, t, p)
                seen[p] += 1
                seen["p in the denominator of t"] += t.denominator % p == 0
                seen["invariant 1"] += expect
    assert min(seen.values()) >= 100 and len(seen) == 6, seen


def test_symbols_need_no_factorization(monkeypatch):
    # symbols, local solubility and the scan read v_p and unit residues
    # only; with factorization refused they must give the same answers
    system = torsor_system(FLAG)
    values = [5, -1, 2, 10, -15, Fraction(3, 50), Fraction(-7, 12)]
    places = [Place(p) for p in (2, 3, 5, 7)]

    def run():
        symbols = [hilbert(a, b, v) for a in values for b in values
                   for v in places]
        local = [padic_soluble(system, p) for p in (2, 5)]
        scan = obstruction_scan(FLAG, [Place(2), Place(5)]).as_json_dict()
        return symbols, local, scan

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("factorize called")

    for module in (exactnum, localsolve, brauermanin):
        monkeypatch.setattr(module, "factorize", refuse, raising=False)
    assert run() == expected


def test_local_invariant_errors():
    with pytest.raises(BrauerManinError, match="pole"):
        local_invariant(FLAG, (1, 1, 0, 0), 2, Place(5))
    with pytest.raises(BrauerManinError, match="length"):
        local_invariant(FLAG, (1, 1), Fraction(1, 2), Place(5))
    with pytest.raises(BrauerManinError, match="0 or 1"):
        local_invariant(FLAG, (2, 0, 0, 0), Fraction(1, 2), Place(5))


def test_local_invariant_linear_in_n():
    rng = random.Random(3)
    places = (REAL_PLACE, Place(2), Place(3), Place(5), Place(7))
    for _ in range(40):
        n = tuple(rng.randrange(2) for _ in range(4))
        m = tuple(rng.randrange(2) for _ in range(4))
        nm = tuple(x ^ y for x, y in zip(n, m))
        t = Fraction(rng.randrange(-30, 30), rng.choice((1, 2, 3, 7)))
        if t in FLAG.e:
            continue
        v = rng.choice(places)
        assert local_invariant(FLAG, nm, t, v) == (
            local_invariant(FLAG, n, t, v) ^ local_invariant(FLAG, m, t, v))


def test_invariant_constant_on_residue_cells():
    # moving t within its residue cell multiplies each t - e_i by a local
    # square, so the invariant cannot change
    for base in (12, 4, 9):
        vals = {local_invariant(FLAG, (0, 0, 1, 1), base + 125 * k, Place(5))
                for k in (0, 1, -2, 11)}
        assert len(vals) == 1, base


def test_quotient_generators():
    gens = quotient_generators(FLAG)
    assert [g.n for g in gens] == [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert quotient_generators(ConicBundleData(e=(0, 1, 2), a=(2, 3, 6))) == ()
    assert quotient_generators(ConicBundleData(e=(0, 1), a=(5, 5))) == ()
    # generators depend on the reduction order; pin cases where reducing
    # by the top bit alone would pick a different basis
    pinned = {
        (3, 6, 2, 15, 2, 30): ((0, 0, 0, 1, 1, 1), (0, 0, 1, 0, 1, 0)),
        (5, 15, 7, 3, 5, 35): ((0, 0, 1, 0, 1, 1), (0, 1, 0, 1, 1, 0)),
        (5, 35, 6, 6, 15, 3, 35): ((0, 0, 1, 1, 0, 0, 0),
                                   (0, 1, 0, 0, 0, 0, 1)),
    }
    for a, expect in pinned.items():
        data = ConicBundleData(e=tuple(range(len(a))), a=a)
        assert tuple(g.n for g in quotient_generators(data)) == expect
    # against the brute-force kernel: leading entry 0, in the kernel,
    # independent modulo (1, ..., 1) and spanning the quotient
    rng = random.Random(29)
    for _ in range(150):
        r = rng.randint(2, 7)
        a = random_classes(rng, r, force_faddeev=True)
        data = ConicBundleData(e=tuple(range(r)), a=tuple(a))
        kernel = brute_kernel(a)
        gens = [g.n for g in quotient_generators(data)]
        assert len(gens) == brauer_group(data).quotient_rank
        for g in gens:
            assert g[0] == 0 and g in kernel
        # with (1, ..., 1) the generators span the kernel freely
        spanned = span(gens + [(1,) * r], r)
        assert len(spanned) == 2 ** (len(gens) + 1) == len(kernel)


def test_pairing_global_reciprocity():
    rng = random.Random(17)
    datasets = (FLAG,
                ConicBundleData(e=(0, Fraction(1, 2), 2, Fraction(7, 3)),
                                a=(5, 5, 5, 5)),
                ConicBundleData(e=(0, 1, 2, 5), a=(5, 5, -1, -1)))
    for data in datasets:
        gens = quotient_generators(data)
        assert gens
        done = 0
        while done < 12:
            t = Fraction(rng.randrange(-60, 60), rng.randrange(1, 14))
            if t in data.e:
                continue
            pt = global_point(data, t)
            for g in gens:
                assert pairing(data, pt, g) == 0, (data.a, t, g.n)
            done += 1


def test_pairing_constant_class_is_zero():
    pt = global_point(FLAG, Fraction(1, 2))
    assert pairing(FLAG, pt, (1, 1, 1, 1)) == 0
    obs = AdelicFiberPoint((LocalParameter(Place(5), 12),
                            LocalParameter(REAL_PLACE, 100)))
    assert pairing(FLAG, obs, (1, 1, 1, 1)) == 0


def test_pairing_requires_kernel_class():
    pt = global_point(FLAG, Fraction(1, 2))
    with pytest.raises(BrauerManinError, match="Ker"):
        pairing(FLAG, pt, (1, 0, 0, 0))


def test_pairing_obstruction_instance():
    # search the 5-adic residues for an invariant-1 cell, mirroring how the
    # instance is constructed in the first place
    hits = [c for c in range(125)
            if Fraction(c) not in FLAG.e
            and local_invariant(FLAG, (0, 0, 1, 1), c, Place(5)) == 1]
    assert 12 in hits
    obs = AdelicFiberPoint((LocalParameter(Place(5), 12),
                            LocalParameter(REAL_PLACE, 100)))
    assert pairing(FLAG, obs, (1, 1, 0, 0)) == 1
    vec = invariant_vector(FLAG, obs, (1, 1, 0, 0))
    assert vec.total() == 1
    assert dict(vec.entries) == {REAL_PLACE: 0, Place(5): 1}


def test_pairing_low_resolution_demands_support():
    # no 2-adic residue mod 2 determines the symbols (the poles 2 and 3
    # cover both parities), so a search stopped at level 1 would demand a
    # component at the undeclared place 2; the certified walk descends
    # further and finds a parameter of invariant 0 there
    obs = AdelicFiberPoint((LocalParameter(Place(5), 12),
                            LocalParameter(REAL_PLACE, 100)))
    assert pairing(FLAG, obs, (1, 1, 0, 0)) == 1
    bits = (0, 0, 1, 1)  # the canonical representative
    assert _walk(FLAG, bits, 2, 1) is None
    t = brauermanin._default_trivial_parameter(FLAG, bits, Place(2))
    assert t is not None and _default_is_invariant_zero(FLAG, bits, 2, t)


@pytest.mark.parametrize("resolution", [0, -1])
def test_pairing_refuses_resolution_below_one(resolution):
    # the support omits the places 3 and 5, so the pairing searches a
    # default parameter there, to the depth the fibre data certify; no
    # resolution is taken, at any value
    point = AdelicFiberPoint.from_pairs({REAL_PLACE: Fraction(1, 2),
                                         Place(2): Fraction(1, 2)})
    gens = quotient_generators(FLAG)
    assert [pairing(FLAG, point, g.n) for g in gens] == [0, 0]
    with pytest.raises(TypeError, match="resolution"):
        pairing(FLAG, point, gens[0].n, resolution=resolution)


def test_pairing_defaults_the_real_place_above_every_fibre():
    # with no real component, the real place reads its default parameter
    # max(e) + 1, where every t - e_i > 0; declaring it changes nothing
    for data in (FLAG, ConicBundleData(e=(0, 1, 2, 3), a=(-1, -1, -1, -1))):
        for pairs in ({Place(5): 12}, {Place(2): Fraction(1, 2), Place(5): 12}):
            bare = AdelicFiberPoint.from_pairs(pairs)
            real = AdelicFiberPoint.from_pairs(
                {**pairs, REAL_PLACE: max(data.e) + 1})
            for g in quotient_generators(data):
                assert pairing(data, bare, g.n) == pairing(data, real, g.n)


def test_pairing_default_search_at_a_large_prime():
    # q = 10^12 + 39 carries the selected fibres, so the pairing searches a
    # default parameter at q; a walker that listed the q children of the
    # root ball before taking the first raised MemoryError here
    q = 1000000000039
    data = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, q, q))
    point = AdelicFiberPoint.from_pairs(
        [(REAL_PLACE, 7), (Place(2), 7), (Place(3), 7), (Place(5), 7)])
    assert pairing(data, point, (0, 0, 1, 1)) == 0


def test_precision_tags():
    exact = AdelicFiberPoint((LocalParameter(Place(5), 12),
                              LocalParameter(REAL_PLACE, 100)))
    tagged = AdelicFiberPoint((LocalParameter(Place(5), 12, precision=2),
                               LocalParameter(REAL_PLACE, 100)))
    assert pairing(FLAG, tagged, (1, 1, 0, 0)) == \
        pairing(FLAG, exact, (1, 1, 0, 0)) == 1
    # val_5(12 - 2) = 1, so one digit cannot pin the unit class down
    coarse = AdelicFiberPoint((LocalParameter(Place(5), 12, precision=1),
                               LocalParameter(REAL_PLACE, 100)))
    with pytest.raises(BrauerManinError, match="does not determine"):
        pairing(FLAG, coarse, (1, 1, 0, 0))
    with pytest.raises(BrauerManinError, match="finite places"):
        LocalParameter(REAL_PLACE, 100, precision=3)
    with pytest.raises(BrauerManinError, match=">= 1"):
        LocalParameter(Place(5), 12, precision=0)


def test_precision_tags_against_brute_hilbert():
    # a component with precision m stands for the ball t + p^m Z_p: an
    # invariant it returns must be the brute-force parity at every lift
    # t + j p^m (j < 8 at p = 2, j < p otherwise) and at two deeper random
    # lifts; a refusal needs a selected fibre with v_p(t - e_i) >= m, or a
    # selected symbol taking both values on those lifts
    rng = random.Random(71)
    seen = Counter()
    for data in _scan_bundles(rng, 6):
        r = data.r
        for p in (2, 3, 5):
            for _ in range(30):
                bits = tuple(rng.randrange(2) for _ in range(r))
                if len(set(bits)) == 1:
                    continue
                # the fibres of the canonical representative, leading 0
                fibres = [i for i, b in enumerate(bits) if b != bits[0]]
                if rng.randrange(2):
                    t = Fraction(rng.randint(-60, 60), rng.choice((1, 1, 7)))
                else:  # p-adically close to a pole, maybe not p-integral
                    t = rng.choice(data.e) + Fraction(
                        rng.randint(1, 30), rng.choice((1, 7))) \
                        * Fraction(p) ** rng.randint(-1, 3)
                if t in data.e:
                    continue
                m = rng.randint(1, 4)
                point = AdelicFiberPoint(
                    (LocalParameter(Place(p), t, precision=m),))
                seen["p in a denominator"] += any(
                    data.e[i].denominator % p == 0 for i in fibres)
                seen["integral t" if t.denominator == 1 else
                     "non-integral t"] += 1
                seen["t not p-integral"] += t.denominator % p == 0
                try:
                    (_, got), = invariant_vector(data, point, bits).entries
                except BrauerManinError as exc:
                    assert "does not determine" in str(exc)
                    if any(valuation(t - data.e[i], p) >= m for i in fibres):
                        seen["refused at a pole"] += 1
                        continue
                    seen["refused on unit digits"] += 1
                    got = None
                lifts = [t + j * p ** m for j in range(8 if p == 2 else p)]
                lifts += [t + p ** m * rng.randrange(1, p ** 4),
                          t + p ** m * Fraction(rng.randrange(p ** 4),
                                                p * rng.randrange(1, 9) + 1)]
                syms = [_oracle_symbols(data, fibres, x, p) for x in lifts]
                if got is None:
                    assert any(len({s[i] for s in syms}) == 2
                               for i in fibres), (data, bits, p, t, m)
                    continue
                seen["determined"] += 1
                for x, sym in zip(lifts, syms):
                    assert sum(sym[i] == -1 for i in fibres) % 2 == got, \
                        (data, bits, p, t, m, x)
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


def test_adelic_point_validation():
    with pytest.raises(BrauerManinError, match="one component per place"):
        AdelicFiberPoint((LocalParameter(Place(5), 1),
                          LocalParameter(Place(5), 2)))
    pt = AdelicFiberPoint.from_pairs({Place(5): 12, REAL_PLACE: 100})
    assert pt.support == (REAL_PLACE, Place(5))
    assert [c.t for c in pt.components if c.place == Place(5)] == [12]
    assert Place(7) not in pt.support
    with pytest.raises(BrauerManinError, match="pole"):
        pairing(FLAG, AdelicFiberPoint.from_pairs({Place(5): 2}), (1, 1, 0, 0))


@pytest.mark.parametrize("call, entry", [
    (lambda: obstruction_scan(FLAG, [5]), 5),
    (lambda: obstruction_scan(FLAG, [REAL_PLACE, "oo"]), "oo"),
    (lambda: LocalParameter(5, 1), 5),
    (lambda: AdelicFiberPoint.from_pairs({None: 12}), None),
    (lambda: local_invariant(FLAG, (1, 1, 0, 0), 12, 5), 5),
    (lambda: AdelicFiberPoint((Place(5),)), Place(5)),
    (lambda: AdelicFiberPoint.from_pairs([(Place(5), 1, 2)]),
     (Place(5), 1, 2)),
], ids=["scan int", "scan str", "local parameter", "from pairs",
        "local invariant", "bare place component", "triple pair"])
def test_places_must_be_place_objects(call, entry):
    with pytest.raises(BrauerManinError, match=re.escape(repr(entry))):
        call()


def test_global_point_support_collects_symbol_places():
    pt = global_point(FLAG, Fraction(1, 2))
    sup = set(pt.support)
    # the real place and 2 always, 5 from the classes, 3 from t - 2 = -3/2
    assert {REAL_PLACE, Place(2), Place(5), Place(3)} <= sup


def test_global_point_support_against_trial_division():
    # (oo, 2), then the odd primes of the a_i, of the e_i denominators, of
    # the numerators and denominators of t - e_i, and those up to r
    rng = random.Random(61)
    for _ in range(300):
        r = rng.randint(1, 6)
        e = {Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 12, 49)))
             for _ in range(r)}
        r = len(e)
        a = [rng.choice((-1, 2, 3, -5, 6, 7, -21, 10, 15, 33)) for _ in e]
        data = ConicBundleData(e=tuple(e), a=a)
        t = Fraction(rng.randint(-99, 99), rng.choice((1, 4, 7, 15, 26)))
        if t in e:
            continue
        odd = {q for q in range(3, r + 1) if trial_primes(q) == {q}}
        for x in a:
            odd |= trial_primes(x)
        for x in e:
            odd |= trial_primes(x.denominator)
            odd |= trial_primes((t - x).numerator)
            odd |= trial_primes((t - x).denominator)
        odd.discard(2)
        expected = (REAL_PLACE, Place(2)) + tuple(Place(q)
                                                  for q in sorted(odd))
        assert global_point(data, t).support == expected


def test_obstruction_scan_flagship():
    tab = obstruction_scan(FLAG, [Place(5), REAL_PLACE])
    assert tab.generators == ((0, 0, 1, 1), (0, 1, 0, 1))
    assert tab.places == (REAL_PLACE, Place(5))
    cells5 = tab.cells_at(Place(5))
    cellsr = tab.cells_at(REAL_PLACE)
    assert len(cells5) == 121  # 125 residues minus the 4 polar classes
    assert len(cellsr) == 5
    assert [c.label for c in cellsr] == [
        "(-oo, 0)", "(0, 1)", "(1, 2)", "(2, 3)", "(3, +oo)"]
    combos = tab.allowed_combinations()
    assert tab.allowed_count() == len(combos) == 60
    assert 0 < len(combos) < len(cells5) * len(cellsr)  # some are excluded
    assert tab.allowed_combinations(limit=7) == combos[:7]


def test_obstruction_scan_cells_at_a_place_outside_the_scan():
    tab = obstruction_scan(FLAG, [Place(5), REAL_PLACE])
    assert tab.cells_at(Place(3)) == ()


def test_obstruction_scan_cells_match_pairing():
    # materialize scan cells as adelic points; the pairing must reproduce
    # the tabulated sums
    tab = obstruction_scan(FLAG, [Place(5), REAL_PLACE])
    gens = quotient_generators(FLAG)
    rng = random.Random(29)
    cells5 = tab.cells_at(Place(5))
    cellsr = tab.cells_at(REAL_PLACE)
    for _ in range(25):
        c5 = rng.choice(cells5)
        cr = rng.choice(cellsr)
        pt = AdelicFiberPoint((LocalParameter(Place(5), c5.representative),
                               LocalParameter(REAL_PLACE, cr.representative)))
        for g, gen in enumerate(gens):
            assert pairing(FLAG, pt, gen) == c5.values[g] ^ cr.values[g]


def test_obstruction_scan_rank_zero_allows_everything():
    data = ConicBundleData(e=(0, 1, 2), a=(2, 3, 6))
    tab = obstruction_scan(data, [REAL_PLACE, Place(2)])
    total = 1
    for v in tab.places:
        total *= len(tab.cells_at(v))
    assert tab.generators == ()
    assert tab.allowed_count() == total > 0


def test_obstruction_scan_refuses_more_residues_than_the_cap():
    # p^K residues get one slot each: past DEFAULT_ENUMERATION_CAP the scan
    # raises before allocating them, at a large prime or a deep resolution
    data = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
    with pytest.raises(BrauerManinError, match="1000003\\^3 residues"):
        obstruction_scan(data, (REAL_PLACE, Place(2), Place(1000003)))
    with pytest.raises(BrauerManinError, match="beyond the cap 10000000"):
        obstruction_scan(data, (REAL_PLACE, Place(5)), resolution=12)


def test_obstruction_scan_empty_support():
    tab = obstruction_scan(FLAG, [])
    assert tab.places == ()
    assert tab.cells == ()
    assert tab.allowed_count() == 1
    assert tab.allowed_combinations() == ((),)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 18: a residue mod p^K that holds a pole is dropped "
    "whole, so at K = 1 the places 2 and 3, and at K = 2 the place 2, "
    "get no cell"))
def test_obstruction_scan_gives_every_place_a_cell():
    # Z_p minus the poles is not empty, so each place has a cell at every
    # resolution; at resolution 3 this bundle allows 27,830 combinations
    data = ConicBundleData(e=(0, 1, 2, 3), a=(3, 3, 5, 5))
    support = (REAL_PLACE, Place(2), Place(3), Place(5))
    for resolution in (1, 2):
        tab = obstruction_scan(data, support, resolution=resolution)
        assert all(tab.cells_at(v) for v in support), resolution


def test_obstruction_scan_adaptive_refinement():
    data = ConicBundleData(e=(0, 1, 2, 5), a=(5, 5, -1, -1))
    assert [g.n for g in quotient_generators(data)] == [(0, 0, 1, 1)]
    # mod 4 only the cell 3 avoids the poles, and val_2(3 - 5) = 1 leaves
    # the unit class that (-1, .)_2 reads unpinned, so the cell must split
    tab = obstruction_scan(data, [Place(2)], resolution=2)
    assert [(c.label, c.values) for c in tab.cells] == [
        ("3 mod 2^3", (1,)), ("7 mod 2^3", (0,))]
    assert tab.allowed_count() == 1
    # hand check: t = 3 has t - 2 = 1 mod 4 and (t - 5)/2 = -1 = 3 mod 4
    assert local_invariant(data, (0, 0, 1, 1), 3, Place(2)) == 1
    assert local_invariant(data, (0, 0, 1, 1), 7, Place(2)) == 0
    # at the default resolution the cells 10 and 13 mod 16 refine once
    tab = obstruction_scan(data, [Place(2)])
    assert len(tab.cells) == 14
    deep = sorted(c.label for c in tab.cells if "2^5" in c.label)
    assert deep == ["10 mod 2^5", "13 mod 2^5", "26 mod 2^5", "29 mod 2^5"]
    assert all(v in (0, 1) for c in tab.cells for v in c.values)
    with pytest.raises(BrauerManinError, match=">= 1"):
        obstruction_scan(data, [Place(2)], resolution=0)


def _oracle_symbols(data, fibres, t, p):
    # fibre -> (a_i, t - e_i)_p by the brute-force search, memoized on
    # the square class of t - e_i
    return {i: brute_hilbert(data.a[i].representative(),
                             local_class(t - data.e[i], p), p)
            for i in fibres}


def _scan_bundles(rng, count):
    # seeded Faddeev bundles with a nontrivial quotient, e_i with 2, 3, 5
    # and 7 in the denominator; the first one pins a = -2 on e = 1/2 and
    # e = 5/4, where the 2-adic cells read the three unit bits of t - e_i
    # from the two or four bits the denominator adds
    out = [ConicBundleData(e=(0, 1, Fraction(1, 2), Fraction(5, 4)),
                           a=(5, 5, -2, -2))]
    while len(out) < count:
        r = rng.choice((4, 5))
        e = set()
        while len(e) < r:
            e.add(Fraction(rng.randint(-9, 9),
                           rng.choice((1, 1, 2, 3, 4, 5, 7, 9, 25))))
        data = ConicBundleData(e=tuple(e),
                               a=random_classes(rng, r, force_faddeev=True))
        if quotient_generators(data):
            out.append(data)
    return out


def test_scan_cells_against_brute_hilbert():
    # the scan reads each cell once through the residue kernel, so the
    # constancy of every tabulated value is checked here instead: against
    # the brute-force symbol at all p children of the cell and at two
    # random deeper lifts (one not an integer); every refined cell must
    # have a parent on which some symbol it reads takes both values; the
    # cells must partition the residues mod p^K that avoid the poles; and
    # each real interval is checked at two interior points by the sign
    # rule (a, b)_oo = -1 iff a < 0 and b < 0
    rng = random.Random(43)
    refined = p_in_denominator = 0
    for data in _scan_bundles(rng, 4):
        gens = [g.n for g in quotient_generators(data)]
        fibres = sorted({i for g in gens for i, b in enumerate(g) if b})
        for cell in obstruction_scan(data, [REAL_PLACE]).cells:
            lo, hi = (None if x[1:] == "oo" else Fraction(x)
                      for x in cell.label[1:-1].split(", "))
            for t in (cell.representative,
                      hi - Fraction(1, 7) if lo is None else
                      lo + Fraction(1, 7) if hi is None else
                      (lo + 3 * hi) / 4):
                assert tuple(
                    sum(data.a[i].representative() < 0 and t < data.e[i]
                        for i in fibres if g[i]) % 2
                    for g in gens) == cell.values, (data, cell, t)
        for p in (2, 3, 5, 7):
            p_in_denominator += any(e.denominator % p == 0 for e in data.e)
            for K in range(1, 5):
                levels = {}
                for cell in obstruction_scan(data, [Place(p)],
                                             resolution=K).cells:
                    label, k = cell.label.split("^")
                    c, k = int(label.split()[0]), int(k)
                    assert c == cell.representative and 0 <= c < p ** k
                    levels[c, k] = cell.values
                    points = [c + j * p ** k for j in range(p)]
                    points += [c + p ** k * rng.randrange(1, p ** 4),
                               c + p ** k * Fraction(rng.randrange(p ** 4),
                                                     p * rng.randrange(1, 9)
                                                     + 1)]
                    for t in points:
                        sym = _oracle_symbols(data, fibres, t, p)
                        got = tuple(sum(sym[i] == -1 for i in fibres if g[i])
                                    % 2 for g in gens)
                        assert got == cell.values, (data, p, K, cell, t)
                    if k > K:
                        refined += 1
                        base = c % p ** (k - 1)
                        seen = [_oracle_symbols(data, fibres,
                                                base + j * p ** (k - 1), p)
                                for j in range(8 if p == 2 else p)]
                        assert any(len({s[i] for s in seen}) == 2
                                   for i in fibres), (data, p, K, cell)
                # a partition of the residues mod p^K off the poles
                for c, k in levels:
                    assert not any((c % p ** j, j) in levels
                                   for j in range(K, k))
                poles = sum(any(c == e or valuation(c - e, p) >= K
                                for e in data.e) for c in range(p ** K))
                assert sum(Fraction(1, p ** k) for _, k in levels) == \
                    1 - Fraction(poles, p ** K)
    assert refined > 20 and p_in_denominator >= 4, (refined, p_in_denominator)


def test_scan_cells_sit_within_the_unit_digits_of_the_resolution():
    # off the poles a residue mod p^K pins every value's valuation, so at
    # odd p no cell refines, while at p = 2 a cell refines until the three
    # unit bits are known, at most _unit_digits(2) - 1 levels past K: the
    # scan's bound of _unit_digits(p) + 1 levels is a margin, never met
    rng = random.Random(4242)
    depth = {p: Counter() for p in (2, 3, 5, 7)}
    for data in _scan_bundles(rng, 12):
        for p, levels in depth.items():
            for K in range(1, 5):
                for cell in obstruction_scan(data, [Place(p)],
                                             resolution=K).cells:
                    levels[int(cell.label.split("^")[1]) - K] += 1
    assert all(set(depth[p]) == {0} for p in (3, 5, 7)), depth
    assert set(depth[2]) == set(range(exactnum._unit_digits(2))), depth[2]


def test_obstruction_scan_permutation_invariance():
    perm = (2, 0, 3, 1)
    data2 = ConicBundleData(e=tuple(FLAG.e[i] for i in perm),
                            a=tuple(FLAG.a[i] for i in perm))
    t1 = obstruction_scan(FLAG, [Place(5), REAL_PLACE])
    t2 = obstruction_scan(data2, [Place(5), REAL_PLACE])
    assert t1.allowed_count() == t2.allowed_count()
    assert len(t1.cells) == len(t2.cells)


def test_scan_json_shape():
    tab = obstruction_scan(FLAG, [Place(5)])
    d = tab.as_json_dict()
    assert d["generators"] == [[0, 0, 1, 1], [0, 1, 0, 1]]
    assert d["places"] == ["5"]
    assert d["resolution"] == {"5": 3}
    assert d["allowed_count"] == tab.allowed_count()
    row = d["cells"][0]
    assert set(row) == {"place", "cell", "representative", "values"}
    assert row["place"] == "5"


def _two_generator_scans():
    # seeded scans with at least two generators over at least two places
    rng = random.Random(61)
    scans = [obstruction_scan(FLAG, [Place(5), REAL_PLACE]),
             obstruction_scan(FLAG, [REAL_PLACE, Place(2), Place(3)],
                              resolution=2)]
    while len(scans) < 8:
        (data,) = _scan_bundles(rng, 2)[1:]
        if len(quotient_generators(data)) < 2:
            continue
        support = [REAL_PLACE] + rng.sample([Place(2), Place(3), Place(5)], 2)
        scans.append(obstruction_scan(data, support,
                                      resolution=rng.choice((1, 2))))
    return scans


def test_scan_allowed_count_against_product():
    # the mask-histogram count against a walk over every combination of
    # one cell per place
    counts = []
    for tab in _two_generator_scans():
        assert len(tab.generators) >= 2 and len(tab.places) >= 2
        allowed = 0
        for pick in itertools.product(*(tab.cells_at(v) for v in tab.places)):
            allowed += not any(sum(cell.values[g] for cell in pick) % 2
                               for g in range(len(tab.generators)))
        assert tab.allowed_count() == allowed, tab.places
        counts.append(allowed)
    assert sum(n > 0 for n in counts) >= 4, counts


def test_scan_cells_order_and_json_rows():
    # finite cells come by (level, residue) within each place, `cells` is
    # the concatenation of `cells_at` in place order, and the JSON rows
    # match the rows built from `cells` in the published field layout
    for tab in _two_generator_scans():
        assert tab.cells == sum((tab.cells_at(v) for v in tab.places), ())
        for v in tab.places:
            if v.is_real:
                continue
            keys = []
            for cell in tab.cells_at(v):
                c, k = cell.label.split(" mod %d^" % v.p)
                keys.append((int(k), int(c)))
            assert keys == sorted(keys)
        assert tab.as_json_dict()["cells"] == [
            {"place": str(c.place), "cell": c.label,
             "representative": "%d/%d" % (c.representative.numerator,
                                          c.representative.denominator),
             "values": list(c.values)}
            for c in tab.cells]


def test_scan_json_calls_share_no_values_list():
    # rows of one call may share a values list; rows of two calls never do
    tab = obstruction_scan(FLAG, [REAL_PLACE, Place(2), Place(5)])
    first, second = tab.as_json_dict()["cells"], tab.as_json_dict()["cells"]
    assert first == second
    assert not ({id(row["values"]) for row in first}
                & {id(row["values"]) for row in second})
    for row in first:
        row["values"].append(7)
    assert tab.as_json_dict()["cells"] == second


# each scan pinned by the sha256 of its sorted JSON, the sha256 of its
# cells as (place, label, representative, values) and its first eight
# allowed combinations; the bundles cover e_i denominators 2, 3 and 9,
# 2-adic cells refined past the resolution (to 2^3 from resolution 2, to
# 2^5 from the default 4), the real place alone, finite places alone and
# an empty support
NINTHS = ConicBundleData(e=(0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 9)),
                         a=(-6, -6, -6, -6))
REFINED = ConicBundleData(e=(0, 1, 2, 5), a=(5, 5, -1, -1))
PINNED_SCANS = {
    "flag oo 2 5": (
        (FLAG, (REAL_PLACE, Place(2), Place(5)), None),
        "97fde42bc72f8f7b660f104b17377cbb"
        "e8344880dc8da2ccd5a6968612874280",
        "c07b7e92753005c75d65b958b75aed81"
        "263c3583454c70cfb8d1d3e76ec0fc3e",
        (
            ("(-oo, 0)", "4 mod 2^4", "11 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "12 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "13 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "16 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "17 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "18 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "36 mod 5^3"),
            ("(-oo, 0)", "4 mod 2^4", "37 mod 5^3"),
        )),
    "ninths oo 2 3": (
        (NINTHS, (REAL_PLACE, Place(2), Place(3)), None),
        "43c25c67e23aef1e1503f56a96af4636"
        "95f7080f9580538d585a871d4002dadf",
        "9cd5975e6bfe3cc0a68227fca7c36592"
        "b12643d3247ae284b61ee3e7d02c9555",
        (
            ("(-oo, 0)", "1 mod 2^4", "1 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "4 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "5 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "7 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "8 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "10 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "13 mod 3^3"),
            ("(-oo, 0)", "1 mod 2^4", "16 mod 3^3"),
        )),
    "refined 2 at 2": (
        (REFINED, (Place(2),), 2),
        "d8fdcb17bcc933a473578fb9f7344756"
        "468e423ffc03ba8568025f35bdb28634",
        "52b4db90bfded9ddc23c13432ba02791"
        "cdf66b2b9eff43e7cbda7bc0986fa859",
        (
            ("7 mod 2^3",),
        )),
    "refined 2 to 2^5": (
        (REFINED, (Place(2),), None),
        "d8afc7ac6cfa33a76e17afa88d68d282"
        "ea96a022d2ead8b31646123cd2482e98",
        "214d9bd85e3d56d49066093cf259bef9"
        "a4fcd7d3255b821851c053d9cbbf0759",
        (
            ("6 mod 2^4",),
            ("7 mod 2^4",),
            ("8 mod 2^4",),
            ("15 mod 2^4",),
            ("10 mod 2^5",),
            ("29 mod 2^5",),
        )),
    "ninths oo": (
        (NINTHS, (REAL_PLACE,), None),
        "e893d8234f17502301da44fd82eae764"
        "1b707d02b6ea04088ab7df4cb29298ba",
        "201a025368a5ceac468891db2bcef3fb"
        "b5e9c903d1e5a5e6480a24cd0d6cfe78",
        (
            ("(-oo, 0)",),
            ("(0, 2/9)",),
            ("(1/2, +oo)",),
        )),
    "flag 3 5": (
        (FLAG, (Place(3), Place(5)), 2),
        "2404662a3579ac08e3a212af85332f67"
        "e4d67fa930fa8b0c9b5299de295c3831",
        "c737dc84994446f7ba6e78bdf24eeaa5"
        "f4ff4096c97e28a8d25d4fc9a11fd6e6",
        (
            ("4 mod 3^2", "5 mod 5^2"),
            ("4 mod 3^2", "8 mod 5^2"),
            ("4 mod 3^2", "10 mod 5^2"),
            ("4 mod 3^2", "15 mod 5^2"),
            ("4 mod 3^2", "20 mod 5^2"),
            ("4 mod 3^2", "23 mod 5^2"),
            ("5 mod 3^2", "11 mod 5^2"),
            ("5 mod 3^2", "12 mod 5^2"),
        )),
    "flag empty": (
        (FLAG, (), None),
        "d8576a41edb5bc6428b6194436fbe44f"
        "86a2befb1d0cbf838374750de075db3e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5"
        "ed12ab4d8e11ba873c2f11161202b945",
        ((),)),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_scans_match_their_pinned_digests():
    got = {}
    for name, ((data, support, res), *_) in PINNED_SCANS.items():
        tab = obstruction_scan(data, support, resolution=res)
        if REAL_PLACE not in support:
            assert tab.cells_at(REAL_PLACE) == ()
        got[name] = (
            _sha(json.dumps(tab.as_json_dict(), sort_keys=True)),
            _sha(repr([(str(c.place), c.label, str(c.representative),
                        c.values) for c in tab.cells])),
            tab.allowed_combinations(limit=8))
    assert got == {name: tuple(pins)
                   for name, (_, *pins) in PINNED_SCANS.items()}


def test_scan_drops_unselected_pole_inside_constant_ball():
    # the canonical generators never select fibre 0, whose pole e_1 = 10
    # lies in the ball 0 mod 5; t - 1, t - 2 and t - 3 are 5-adic units
    # there, so the ball is constant for the selected fibres and the scan
    # fills its residues mod 5^K at once.  10 mod 5^K hugs a pole and must
    # still be left out
    data = ConicBundleData(e=(10, 1, 2, 3), a=(5, 5, 5, 5))
    gens = [g.n for g in quotient_generators(data)]
    assert gens and not any(g[0] for g in gens)
    read = brauermanin._reader(data, Place(5), (0, 1, 1, 1))
    assert read(0, 1) is not None
    for K in (2, 3):
        tab = obstruction_scan(data, [Place(5)], resolution=K)
        labels = {cell.label for cell in tab.cells}
        assert "10 mod 5^%d" % K not in labels
        assert {"0 mod 5^%d" % K, "5 mod 5^%d" % K} <= labels
        assert all(cell.label.endswith("^%d" % K) for cell in tab.cells)
        assert sum(Fraction(1, 5 ** K) for _ in tab.cells) == \
            1 - Fraction(4, 5 ** K)


def _certified_depth(data, bits, p):
    # K* = W + 2 u_p + 1, W the largest v_p(e_i - e_j) over pairs of
    # selected p-integral poles (0 for fewer than two), u_p the unit
    # digits: 3 at p = 2, 1 at odd p
    poles = [e for b, e in zip(bits, data.e) if b and e.denominator % p]
    W = max((valuation(x - y, p) for x, y in itertools.combinations(poles, 2)),
            default=0)
    return W + 2 * (3 if p == 2 else 1) + 1


def _walk(data, bits, p, K):
    # the first ball of invariant 0 a depth-first walk to level K meets
    read = brauermanin._reader(data, Place(p), bits)
    for _, (c,), signs in exactnum._balls(p, 1, K,
                                          lambda u, k: read(u[0], k)):
        if signs is not None and signs.bit_count() % 2 == 0:
            return Fraction(c)
    return None


def _default_is_invariant_zero(data, bits, p, t):
    # the brute-force parity at t and at three lifts in its ball, which
    # has level at most K*
    fibres = [i for i, b in enumerate(bits) if b]
    step = p ** _certified_depth(data, bits, p)
    for u in [t + j * step for j in range(4)]:
        if u not in data.e:
            sym = _oracle_symbols(data, fibres, u, p)
            if sum(sym[i] == -1 for i in fibres) % 2:
                return False
    return True


# a class with no integral parameter of invariant 0 at 2: its selected
# fibres have the poles -5/2, 1/2 and 5
REFUSED = (ConicBundleData(e=(-3, Fraction(-5, 2), Fraction(1, 2), 2, 5),
                           a=(13, -1, 15, 13, -15)), (0, 1, 1, 0, 1))

# draws at p = 3 (e, a, selected fibres): on the first three no ball of
# level K* - 1 has invariant 0 but one of level K* has; on the last the
# poles -7/3 and 722/3 lie 3^5 apart, but they are not 3-integral, so they
# leave K* at 3, and a walk to level 8 returns another parameter
DEEP_DEFAULTS = [(ConicBundleData(e=e, a=a), bits) for e, a, bits in [
    ((-1, 0, 9, 7), (23, -10, -7, -7), (1, 1, 0, 1)),
    ((4, -5, -9, -10), (6, -1, -1, -7), (0, 1, 1, 1)),
    ((6, 3, Fraction(-8, 3), 0), (5, -19, 29, -22), (1, 1, 1, 1)),
    ((Fraction(-7, 3), -8, 0, Fraction(722, 3)), (5, -11, -2, -13),
     (1, 1, 1, 1)),
]]


def test_default_trivial_parameter_by_balls():
    # the certified walk returns the first residue mod p^K* in digit order
    # (lowest digit first) whose symbols are constant of even parity there,
    # as a read of every residue finds, and None when there is none; a
    # returned parameter's ball holds points of invariant 0 by the
    # brute-force symbols.  The pinned draws select fibres of no kernel
    # class: the walk's claim concerns the selected symbols only
    rng = random.Random(71)
    classes = [(data, bits) for data in _scan_bundles(rng, 6)
               for bits in map(brauermanin._canonical,
                               brauer_group(data).kernel_basis) if any(bits)]
    nones = found = 0
    for data, bits in classes + [REFUSED] + DEEP_DEFAULTS:
        for p in (2, 3, 5):
            read = brauermanin._reader(data, Place(p), bits)
            K = _certified_depth(data, bits, p)
            t = brauermanin._default_trivial_parameter(data, bits, Place(p))
            first = None
            for digits in itertools.product(range(p), repeat=K):
                c = sum(d * p ** j for j, d in enumerate(digits))
                signs = read(c, K)
                if signs is not None and signs.bit_count() % 2 == 0:
                    first = Fraction(c)
                    break
            assert t == first, (data, bits, p)
            if t is None:
                nones += 1
                continue
            found += 1
            assert _default_is_invariant_zero(data, bits, p, t)
    assert nones and found > 20, (nones, found)


def _close_pole_draws(rng, p, count):
    # seeded bundles whose poles sit p^k apart (k <= 6) or carry p in the
    # denominator, with any nonempty selection of fibres: the walk's claim
    # concerns the selected symbols only
    out = []
    while len(out) < count:
        r = rng.choice((2, 3, 4))
        e = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, p)))]
        while len(e) < r:
            if rng.random() < 0.7:
                x = rng.choice(e) + rng.choice((1, -1)) * p ** rng.randint(
                    0, 6)
            else:
                x = Fraction(rng.randint(-9, 9), rng.choice((1, 1, p)))
            if x not in e:
                e.append(x)
        bits = tuple(rng.randrange(2) for _ in range(r))
        if any(bits):
            out.append((ConicBundleData(e=tuple(e), a=random_classes(rng, r)),
                        bits))
    return out


def test_default_trivial_parameter_is_certified_at_close_poles():
    # a returned parameter's ball reads invariant 0 under the brute-force
    # symbols, and a None agrees with a walk four levels deeper; on the
    # pinned draws a walk to K* - 1 finds nothing, so one level less is
    # not enough
    rng = random.Random(4747)
    draws = [(p, d) for p in (2, 3, 5) for d in _close_pole_draws(rng, p, 150)]
    draws += [(3, draw) for draw in DEEP_DEFAULTS]
    seen = Counter()
    for p, (data, bits) in draws:
        K = _certified_depth(data, bits, p)
        seen["close poles"] += K > 2 * (3 if p == 2 else 1) + 1
        t = brauermanin._default_trivial_parameter(data, bits, Place(p))
        if t is None:
            seen["none"] += 1
            assert _walk(data, bits, p, K + 4) is None, (data, bits, p)
            continue
        seen["found"] += 1
        assert _default_is_invariant_zero(data, bits, p, t), (data, bits, p)
        seen["deeper than K* - 1"] += _walk(data, bits, p, K - 1) is None
    assert seen["deeper than K* - 1"] >= 3, seen
    assert min(seen.values()) >= 3 and seen["close poles"] > 100, seen


def test_pairing_finds_a_default_past_the_old_resolution():
    # without its place-2 component, the global point at t = 7 pairs to 1:
    # no ball of level 4 or less at 2 has invariant 0, so a search of the
    # residues mod 2^4 found none, but a deeper ball has
    data = ConicBundleData(e=(-2, Fraction(-4, 3), Fraction(1, 2),
                              Fraction(5, 3), 6), a=(-7, 6, -5, -7, -30))
    bits = (0, 1, 1, 0, 1)
    point = global_point(data, 7)
    assert Place(2) in point.support and pairing(data, point, bits) == 0
    bare = AdelicFiberPoint(tuple(c for c in point.components
                                  if c.place != Place(2)))
    assert pairing(data, bare, bits) == 1
    t = brauermanin._default_trivial_parameter(data, bits, Place(2))
    assert _walk(data, bits, 2, 4) is None
    assert _default_is_invariant_zero(data, bits, 2, t)


def test_pairing_refusal_is_certified():
    # every non-pole residue mod 2^(K* + 4) has an odd invariant by the
    # brute-force symbols, so no integral parameter at 2 has invariant 0
    # and the refusal is a proof
    data, bits = REFUSED
    point = global_point(data, 7)
    bare = AdelicFiberPoint(tuple(c for c in point.components
                                  if c.place != Place(2)))
    with pytest.raises(BrauerManinError, match="nonzero invariant at every "
                       "integral parameter at 2, outside the declared "
                       "support"):
        pairing(data, bare, bits)
    fibres = [1, 2, 4]
    K = _certified_depth(data, bits, 2)
    assert K == 7
    for t in range(2 ** (K + 4)):
        if t not in data.e:
            sym = _oracle_symbols(data, fibres, Fraction(t), 2)
            assert sum(sym[i] == -1 for i in fibres) % 2 == 1, t
