"""Group construction, hyperplane enumeration, actions, and subgroups."""

import random

import pytest

from bct.errors import InternalInconsistency, InvalidParameters, InvalidRoot, TooLarge
from bct.exact_arith import CycNumber, zeta
from bct.reflection_groups import (
    build_imprimitive,
    build_matrix_group,
    hermitian_inner,
    orbit,
    orbits,
    reflection_from_root,
    stabilizer,
    subgroup_closure,
)
from group_reference import (
    element_order,
    inv,
    mono_inv,
    mono_mul,
    monomial,
    monomial_matrix,
    mul,
    perm_exps,
)


def test_symmetric_group():
    g = build_imprimitive(1, 1, 3)
    assert g.order == 6
    assert [h.label for h in g.hyperplanes] == ["H_1,2", "H_1,3", "H_2,3"]


def test_g312_counts():
    g = build_imprimitive(3, 1, 2)
    assert g.order == 18
    assert len(g.hyperplanes) == 5
    labels = [h.label for h in g.hyperplanes]
    assert labels[:2] == ["H_1", "H_2"]
    assert len(g.reflections) == 7


def test_g223_has_no_coordinate_hyperplanes():
    g = build_imprimitive(2, 2, 3)
    assert g.order == 24
    assert all(h.key[0] == "pair" for h in g.hyperplanes)


def test_imprimitive_parameter_validation():
    with pytest.raises(InvalidParameters):
        build_imprimitive(4, 3, 2)
    with pytest.raises(InvalidParameters):
        build_imprimitive(3, 1, 1)
    with pytest.raises(TooLarge):
        build_imprimitive(10, 1, 5, cap=1000)


def test_g222_flagged_reducible():
    assert build_imprimitive(2, 2, 2).reducible
    assert not build_imprimitive(2, 1, 2).reducible


def test_cyclic_matrix_group():
    g = build_matrix_group([[[zeta(3), 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert g.order == 3


def test_matrix_group_rejects_non_unitary():
    with pytest.raises(InvalidParameters, match="non-unitary generator"):
        build_matrix_group([[[1, 1], [0, 1]]])


def test_matrix_group_rejects_non_square_and_mixed_dimensions():
    with pytest.raises(InvalidParameters, match="must form a square array"):
        build_matrix_group([[[1, 0], [0]]])
    with pytest.raises(InvalidParameters, match="must share one dimension"):
        build_matrix_group([[[-1, 0], [0, 1]], [[-1]]])


def test_matrix_group_cap():
    gens = [
        reflection_from_root([0, 1], zeta(3)),
        reflection_from_root([1 + zeta(4), 1], zeta(3)),
    ]
    with pytest.raises(TooLarge):
        build_matrix_group(gens, cap=10)


def test_reflection_from_root_examples():
    t3 = reflection_from_root([0, 0, 1], zeta(3))
    assert t3[2][2] == zeta(3)
    assert t3[0][0] == 1 and t3[0][2] == 0

    t00 = reflection_from_root([1, 1, 1], zeta(3))
    v = (1, 1, 1)
    image = tuple(
        sum(t00[i][j] * v[j] for j in range(3)) for i in range(3)
    )
    assert image == (zeta(3), zeta(3), zeta(3))
    perp = (1, -1, 0)
    fixed = tuple(
        sum(t00[i][j] * perp[j] for j in range(3)) for i in range(3)
    )
    assert fixed == (1, -1, 0)

    s = reflection_from_root([1, -1, 0], -1)
    want = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert all(
        s[i][j] == want[i][j] for i in range(3) for j in range(3)
    )


def test_reflection_from_root_rejects_bad_input():
    with pytest.raises(InvalidRoot):
        reflection_from_root([0, 0, 0], -1)
    with pytest.raises(InvalidParameters):
        reflection_from_root([1, 0], CycNumber.rational(1))
    with pytest.raises(InvalidParameters):
        reflection_from_root([1, 0], CycNumber.rational(2))


def test_hyperplane_counts():
    assert len(build_imprimitive(1, 1, 4).hyperplanes) == 6
    labels = [h.label for h in build_imprimitive(2, 1, 2).hyperplanes]
    assert labels == ["H_1", "H_2", "H_1,2^0", "H_1,2^1"]


def test_packaged_g25_g26(g25, g26):
    assert g25.order == 648
    assert g26.order == 1296
    assert len(g25.hyperplanes) == 12
    assert len(g26.hyperplanes) == 21
    assert sorted(h.order_m for h in g26.hyperplanes).count(2) == 9
    assert sorted(h.order_m for h in g26.hyperplanes).count(3) == 12
    assert [len(c) for c in g25.reflection_classes] == [12, 12]
    assert [len(c) for c in g26.reflection_classes] == [12, 12, 9]


def test_stored_reflection_lookups_match_scans(g25, g26):
    for G in (g25, g26, build_imprimitive(3, 1, 3)):
        nrefl = len(G.reflections)
        for hid in range(len(G.hyperplanes)):
            scan = [i for i in range(nrefl) if G.reflection_hyperplane[i] == hid]
            assert list(G.hyperplane_reflections[hid]) == scan
        for i in range(nrefl):
            scan = next(
                ci for ci, members in enumerate(G.reflection_classes) if i in members
            )
            assert G.reflection_class_of[i] == scan


def test_orbits_partition_and_refuse_a_non_permutation():
    # x -> x + 2 mod 6 splits 0..5 into evens and odds
    assert orbits(range(6), [2], lambda x, k: (x + k) % 6) == [[0, 2, 4], [1, 3, 5]]
    with pytest.raises(InternalInconsistency, match="meets an earlier orbit"):
        orbits(range(3), [0], lambda x, _: 0)


def test_act_identity_and_monomial_example():
    g = build_imprimitive(3, 1, 3)
    h23 = next(h for h in g.hyperplanes if h.key == ("pair", 1, 2, 0))
    assert g.hyperplanes[g.hyperplane_action(g.identity)[h23.id]] is h23
    w = g.index_of(monomial(3, (1, 0, 2), (0, 0, 0)))
    assert g.hyperplanes[g.hyperplane_action(w)[h23.id]].key == ("pair", 0, 2, 0)


def test_act_g26_t2_moves_pair_hyperplane(g26):
    t2 = g26.index_of(reflection_from_root([0, 1, 0], zeta(3)))
    h12 = next(
        h
        for h in g26.hyperplanes
        if h.root == (CycNumber.rational(1), CycNumber.rational(-1), CycNumber.rational(0))
    )
    img1 = g26.hyperplanes[g26.hyperplane_action(t2)[h12.id]]
    img2 = g26.hyperplanes[g26.hyperplane_action(g26.mul(t2, t2))[h12.id]]
    # the orbit under t2 runs through both twisted forms z_1 = zeta^k z_2
    kappas = set()
    for img in (img1, img2):
        r = img.root
        assert r[2] == 0 and r[0] == 1
        kappas.add(-r[1])
    assert kappas == {zeta(3), zeta(3, 2)}


def test_monomial_action_matches_conjugation():
    g = build_imprimitive(3, 1, 2)
    rng = random.Random(7)
    hs = g.hyperplanes
    for _ in range(40):
        w = rng.choice(g.elements)
        h = rng.choice(hs)
        img = hs[g.hyperplane_action(w)[h.id]]
        wm = monomial_matrix(g, w)
        conj = mul(mul(wm, monomial_matrix(g, h.dist_reflection)), inv(wm))
        assert conj == monomial_matrix(g, img.dist_reflection)


def test_conjugate_of_distinguished_is_distinguished():
    for g in (build_imprimitive(3, 1, 2), build_imprimitive(2, 2, 3)):
        rng = random.Random(11)
        hs = g.hyperplanes
        for _ in range(30):
            w = rng.choice(g.elements)
            h = rng.choice(hs)
            img = hs[g.hyperplane_action(w)[h.id]]
            wv = perm_exps(g, w)
            conj = mono_mul(
                g.m, mono_mul(g.m, wv, perm_exps(g, h.dist_reflection)), mono_inv(g.m, wv)
            )
            assert conj == perm_exps(g, img.dist_reflection)
            assert g.conj(w, h.dist_reflection) == img.dist_reflection
            assert img.order_m == h.order_m


def test_commutation_equivalences():
    # reflections commute iff each fixes the other's hyperplane iff the
    # hyperplanes agree or the roots are orthogonal
    for g in (build_imprimitive(1, 1, 3), build_imprimitive(3, 1, 2),
              build_imprimitive(2, 2, 3)):
        hs = g.hyperplanes
        refl = g.reflections
        for a in range(len(refl)):
            for b in range(len(refl)):
                r1, r2 = refl[a], refl[b]
                h1 = hs[g.reflection_hyperplane[a]]
                h2 = hs[g.reflection_hyperplane[b]]
                commute = g.mul(r1, r2) == g.mul(r2, r1)
                fixes = hs[g.hyperplane_action(r1)[h2.id]] is h2
                geo = h1 is h2 or not hermitian_inner(h1.root, h2.root)
                assert commute == fixes == geo


def test_stabilizer_and_orbit():
    s3 = build_imprimitive(1, 1, 3)
    assert stabilizer(s3, [0]).order == 2
    assert len(orbit(s3, [0])[0]) == 3
    assert stabilizer(s3, []).order == 6
    assert orbit(s3, [])[0] == [()]


def test_subgroup_closure():
    s3 = build_imprimitive(1, 1, 3)
    assert subgroup_closure(s3, []).order == 1
    swap = s3.index_of(monomial(1, (1, 0, 2), (0, 0, 0)))
    assert subgroup_closure(s3, [swap]).order == 2
    s4 = build_imprimitive(1, 1, 4)
    transpositions = s4.reflections
    assert subgroup_closure(s4, transpositions).order == 24


def test_subgroup_closure_refuses_a_non_index():
    s3 = build_imprimitive(1, 1, 3)
    with pytest.raises(InternalInconsistency, match="generator 6 is not an element index"):
        subgroup_closure(s3, [s3.order])


def test_monomial_matrix_cross_check():
    g = build_imprimitive(3, 1, 2)
    mg = build_matrix_group(
        [monomial_matrix(g, s) for s in g.generators], name="G312m"
    )
    assert mg.order == g.order
    # match hyperplanes through normalized roots
    def norm(root):
        lead = next(x for x in root if x)
        return tuple(x / lead for x in root)

    match = {}
    mg_hyps = mg.hyperplanes
    for h in g.hyperplanes:
        target = [mh.id for mh in mg_hyps if norm(mh.root) == norm(h.root)]
        assert len(target) == 1
        match[h.id] = target[0]
    for w in g.elements:
        acted = g.hyperplane_action(w)
        acted_m = mg.hyperplane_action(mg.index_of(monomial_matrix(g, w)))
        for hid, img in enumerate(acted):
            assert acted_m[match[hid]] == match[img]


def test_element_order():
    g = build_imprimitive(3, 1, 2)
    t1 = g.element(g.index_of(monomial(3, (0, 1), (1, 0))))
    assert element_order(t1) == 3
    assert element_order(g.element(g.identity)) == 1


@pytest.mark.parametrize("params", [(1, 1, 3), (3, 1, 2), (4, 2, 2), (2, 2, 3)])
def test_monomial_element_values_match_frames(params):
    """element(i) of a monomial group is the matrix its frame names, and
    index_of maps that matrix back to i."""
    g = build_imprimitive(*params)
    for i in g.elements:
        value = g.element(i)
        assert value == monomial_matrix(g, i)
        assert g.index_of(value) == i


def test_index_of_refuses_a_non_element():
    g, c3 = build_imprimitive(3, 1, 2), build_matrix_group([[[zeta(3)]]])
    for G, value, message in [
        (g, [[1, 1], [0, 1]], r"is not an element of G\(3,1,2\)"),
        (g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], r"is not an element of G\(3,1,2\)"),
        (g, [[zeta(5), 0], [0, 1]], r"does not lie in Q\(zeta_3\)"),
        (c3, [[-1]], "is not an element of matrix-group"),
    ]:
        with pytest.raises(InvalidParameters, match=message):
            G.index_of(value)
