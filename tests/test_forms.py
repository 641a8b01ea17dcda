"""Symmetric bilinear form classification and isometries."""

from itertools import product

import pytest

from kirby import forms, intmat

from conftest import bench_workloads, random_unimodular


def congruent(q: forms.BilinearForm, e, e_inv):
    rows = intmat.matmul(intmat.matmul(intmat.transpose(e), q.rows), e)
    return forms.BilinearForm.from_rows(rows)


def test_classify_basics():
    c = forms.diagonal_form(1, 1, -1).classify()
    assert (c.rank, c.signature, c.parity) == (3, 1, "odd")
    assert c.definiteness == "indefinite"
    assert c.canonical_diagonal == (2, 1)
    h = forms.hyperbolic_form().classify()
    assert (h.rank, h.signature, h.parity) == (2, 0, "even")
    e8 = forms.e8_form().classify()
    assert (e8.rank, e8.signature, e8.parity, e8.definiteness) == (
        8,
        8,
        "even",
        "positive",
    )


def test_parity_is_congruence_invariant(rng):
    for trial in range(30):
        n = rng.randint(1, 5)
        entries = [rng.choice([1, -1]) for _ in range(n)]
        q = forms.diagonal_form(*entries)
        e, e_inv = random_unimodular(n, rng)
        q2 = congruent(q, e, e_inv)
        assert q2.parity == q.parity == "odd"
    h = forms.hyperbolic_form()
    for trial in range(20):
        e, e_inv = random_unimodular(2, rng)
        assert congruent(h, e, e_inv).parity == "even"


def test_elliptic_form_rank_signature_parity():
    for n in range(1, 5):
        q = forms.elliptic_form(n)
        c = q.classify()
        assert c.rank == 12 * n - 2
        assert c.signature == -8 * n
        assert c.parity == ("even" if n % 2 == 0 else "odd")


def test_stabilize_and_stable_equivalence():
    q = forms.diagonal_form(1, -1)
    assert forms.stabilize(q, "H").rank == 4
    with pytest.raises(forms.FormError):
        forms.stabilize(q, "<2>")
    a = forms.decomposable_form(2, 3)
    b = forms.decomposable_form(1, 2)
    res = forms.stably_equivalent(a, b)
    assert res.equivalent
    # even vs odd with only H allowed is obstructed
    res2 = forms.stably_equivalent(
        forms.hyperbolic_form(), forms.diagonal_form(1, -1), allowed=("H",)
    )
    assert res2.status == "inequivalent"


def test_reflect_is_involutive_isometry(rng):
    count = 0
    while count < 60:
        n = rng.randint(1, 5)
        entries = [rng.choice([1, -1]) for _ in range(n)]
        base = forms.diagonal_form(*entries)
        e, e_inv = random_unimodular(n, rng)
        q = congruent(base, e, e_inv)
        # image of a basis vector under E^-1 has the same self-pairing +-1
        i = rng.randrange(n)
        sigma = [row[i] for row in e_inv]
        iso = forms.reflect(q, sigma)
        assert iso.is_involution()
        assert iso.apply(sigma) == [-x for x in sigma]
        count += 1


def test_reflect_rejects_bad_self_pairing():
    q = forms.diagonal_form(3)
    with pytest.raises(forms.FormError):
        forms.reflect(q, [1])


def test_fs_action_det_one_and_class_dependence(rng):
    q = forms.diagonal_form(1, -1, -1, 1)
    s, e1, e2 = [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]
    iso = forms.fs_action(q, s, e1, e2)
    assert iso.determinant() == 1
    again = forms.fs_action(q, list(s), list(e1), list(e2))
    assert iso.matrix == again.matrix


def test_blowdown_class_drops_rank_and_signature():
    q = forms.diagonal_form(1, 1, -1)
    out = forms.blowdown_class(q, [0, 1, 0])
    c = out.classify()
    assert c.rank == 2
    assert c.signature == 0
    with pytest.raises(forms.FormError):
        forms.blowdown_class(q, [1, 1, 0])  # self-pairing 2


def test_blowdown_inverts_stabilization(rng):
    for trial in range(20):
        n = rng.randint(1, 4)
        entries = [rng.choice([1, -1]) for _ in range(n)]
        q = forms.diagonal_form(*entries)
        stab = forms.stabilize(q, "<1>")
        v = [0] * n + [1]
        back = forms.blowdown_class(stab, v)
        assert back.classify() == q.classify()


def double_loop_witness(q1, q2, allowed, max_count):
    """The exhaustive search stably_equivalent ran before its per-side
    tables: the first pair of counts in product order with the fewest
    summands, or None."""
    names = list(allowed)
    pos1, neg1, _ = intmat.inertia(q1.rows)
    pos2, neg2, _ = intmat.inertia(q2.rows)
    odd1 = q1.parity == "odd"
    odd2 = q2.parity == "odd"

    def stabilized(pos, neg, odd, counts):
        for name, k in zip(names, counts):
            if name == "<1>":
                pos, odd = pos + k, odd or k > 0
            elif name == "<-1>":
                neg, odd = neg + k, odd or k > 0
            else:
                pos, neg = pos + k, neg + k
        return pos, neg, odd

    best = None
    for counts1 in product(range(max_count + 1), repeat=len(names)):
        p1, n1, o1 = stabilized(pos1, neg1, odd1, counts1)
        for counts2 in product(range(max_count + 1), repeat=len(names)):
            p2, n2, o2 = stabilized(pos2, neg2, odd2, counts2)
            if (p1, n1) != (p2, n2):
                continue
            if not (o1 and o2 and p1 > 0 and n1 > 0):
                continue
            total = sum(counts1) + sum(counts2)
            if best is None or total < best[0]:
                best = (total, tuple(zip(names, counts1)), tuple(zip(names, counts2)))
    return None if best is None else best[1:]


def stably_equivalent_oracle(q1, q2, allowed=("<1>", "<-1>", "H"), max_count=6):
    """stably_equivalent as it read before its stabilizations were
    tabulated: each side re-sorts the product of counts and stabilizes
    every entry."""
    if q1.matrix == q2.matrix:
        return forms.StableEquivalence("equivalent")
    if abs(intmat.det(q1.rows)) != 1 or abs(intmat.det(q2.rows)) != 1:
        return forms.StableEquivalence("unsupported")

    names = list(allowed)
    pos1, neg1, _ = intmat.inertia(q1.rows)
    pos2, neg2, _ = intmat.inertia(q2.rows)
    odd1 = q1.parity == "odd"
    odd2 = q2.parity == "odd"

    def stabilized(pos, neg, odd, counts):
        for name, k in zip(names, counts):
            if name == "<1>":
                pos, odd = pos + k, odd or k > 0
            elif name == "<-1>":
                neg, odd = neg + k, odd or k > 0
            else:
                pos, neg = pos + k, neg + k
        return pos, neg, odd

    def fewest(pos, neg, odd):
        found = {}
        for counts in sorted(product(range(max_count + 1), repeat=len(names)), key=sum):
            p, n, o = stabilized(pos, neg, odd, counts)
            if o and p > 0 and n > 0:
                found.setdefault((p, n), counts)
        return found

    w1, w2 = fewest(pos1, neg1, odd1), fewest(pos2, neg2, odd2)
    shared = w1.keys() & w2.keys()
    if shared:
        _, c1, c2 = min((sum(w1[k]) + sum(w2[k]), w1[k], w2[k]) for k in shared)
        return forms.StableEquivalence("equivalent", tuple(zip(names, c1)), tuple(zip(names, c2)))
    if not any(s in allowed for s in ("<1>", "<-1>")):
        if odd1 != odd2:
            return forms.StableEquivalence("inequivalent")
        if pos1 - neg1 != pos2 - neg2:
            return forms.StableEquivalence("inequivalent")
        if (pos1 + neg1) % 2 != (pos2 + neg2) % 2:
            return forms.StableEquivalence("inequivalent")
    return forms.StableEquivalence("unsupported")


def random_unimodular_form(rng):
    blocks = [forms.diagonal_form(1), forms.diagonal_form(-1), forms.hyperbolic_form()]
    q = rng.choice(blocks + [forms.e8_form(rng.choice([1, -1]))])
    for _ in range(rng.randint(0, 2)):
        q = q.direct_sum(rng.choice(blocks))
    e, e_inv = random_unimodular(q.rank, rng, steps=4)
    return congruent(q, e, e_inv)


def test_stable_equivalence_witness_matches_double_loop(rng):
    names = ["<1>", "<-1>", "H"]
    pairs = found = 0
    while pairs < 120:
        q1, q2 = random_unimodular_form(rng), random_unimodular_form(rng)
        if q1.matrix == q2.matrix:
            continue
        allowed = tuple(rng.sample(names, rng.randint(1, 3)))
        max_count = rng.randint(0, 6)
        res = forms.stably_equivalent(q1, q2, allowed, max_count)
        assert res == stably_equivalent_oracle(q1, q2, allowed, max_count)
        witness = double_loop_witness(q1, q2, allowed, max_count)
        if witness is None:
            assert res.status != "equivalent"
        else:
            assert res.status == "equivalent"
            assert (res.counts, res.counts_other) == witness
            found += 1
        pairs += 1
    assert found >= 40  # the witness comparison is exercised, not vacuous


def test_stable_equivalence_matches_oracle_on_search_pairs():
    # the form pairs of the benchmark's search workload, seeds 1-20, under
    # the default and under narrower summand sets and count caps
    workloads = bench_workloads()
    statuses = set()
    for seed in range(1, 21):
        for left, right in workloads.build("search", seed).spec["pairs"]:
            q1, q2 = (workloads.build_form(forms, side) for side in (left, right))
            for allowed, max_count in ((("<1>", "<-1>", "H"), 6), (("H",), 6), (("<1>", "H"), 3)):
                res = forms.stably_equivalent(q1, q2, allowed, max_count)
                assert res == stably_equivalent_oracle(q1, q2, allowed, max_count), (left, right)
                statuses.add(res.status)
    assert statuses == {"equivalent", "inequivalent", "unsupported"}
