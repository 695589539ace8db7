"""Admissibility of transverse collections for Brauer-Chen algebras.

Every transverse collection B of reflecting hyperplanes carries a normal
subgroup K_B of its setwise stabilizer.  Whether the generator e_B of the
Brauer-Chen algebra survives in the regular module (B is "admissible"),
and how large the matrix block attached to the orbit of B is, are decided
by an exact calculus of relation vectors over the basis

    theta(s) = mu_s * s   for a reflection s with hyperplane outside B,
    theta(s) = s          for a reflection s with hyperplane inside B,
    theta(1) = 1.

Vectors are integer tuples of length N+1 where N is the number of
reflections: positions 0..N-1 follow the group's reflection list and
position N is the identity slot.  The main entry points are classify(),
which produces one record per collection, and dim_from_rows(), which sums
the block sizes over an orbit table with a double-entry consistency check.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

from .errors import InternalInconsistency, InvalidParameters
from .exact_arith import CycNumber, SpanBasis, zeta
from .reflection_groups import (
    Group,
    Monomial,
    Subgroup,
    hyperplanes,
    orbit,
    small_generating_set,
    subgroup_closure,
)
from .transversality import OrbitRecord, collection_orbits, small_orbit, transv_table

__all__ = [
    "GENERIC",
    "AdmissibilityRecord",
    "FieldConfig",
    "SigmaTerm",
    "check_A1",
    "check_A2",
    "classify",
    "classify_orbits",
    "d0_ideal_dim",
    "d_and_p",
    "dim_brauer",
    "dim_from_rows",
    "dim_g22n_formula",
    "dim_gmpn_formula",
    "k_subgroup",
    "kb_membership_gmpn",
    "mu_sixth",
    "orbit_records",
    "rel_bar",
    "rel_set",
    "sigma_triples",
]


# ---------------------------------------------------------------------------
# coefficient-field configuration


class FieldConfig:
    """Coefficient-field mode.

    "generic" keeps every parameter mu_c an independent invertible
    indeterminate; "mu_sixth_root" specializes the cross-class ratio mu to
    zeta_6^exponent while delta stays transcendental.
    """

    __slots__ = ("mode", "exponent")

    def __init__(self, mode, exponent=None):
        assert mode in ("generic", "mu_sixth_root")
        if mode == "mu_sixth_root":
            assert exponent is not None
            exponent = exponent % 6
        else:
            assert exponent is None
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("FieldConfig is immutable")

    @property
    def mu(self) -> CycNumber:
        assert self.mode == "mu_sixth_root"
        return zeta(6, self.exponent)

    def __repr__(self):
        if self.mode == "generic":
            return "FieldConfig(generic)"
        return f"FieldConfig(mu=zeta6^{self.exponent})"


GENERIC = FieldConfig("generic")


def mu_sixth(exponent: int = 1) -> FieldConfig:
    """Field mode with mu specialized to zeta_6^exponent."""
    return FieldConfig("mu_sixth_root", exponent)


# ---------------------------------------------------------------------------
# relation vectors


class SigmaTerm:
    """One difference element sigma^H_{H1,H2}.

    Represents sum(mu_s s, s mapping H1 to H) - sum(mu_s s, s mapping H2
    to H) where H lies outside the collection and is transverse to
    neither H1 nor H2.  plus/minus hold reflection indices.
    """

    __slots__ = ("hyperplane", "h1", "h2", "plus", "minus")

    def __init__(self, hyperplane, h1, h2, plus, minus):
        self.hyperplane = hyperplane
        self.h1 = h1
        self.h2 = h2
        self.plus = tuple(plus)
        self.minus = tuple(minus)

    def __repr__(self):
        return f"SigmaTerm(H={self.hyperplane}, {self.h1}->{self.h2})"


def sigma_triples(G: Group, B):
    """All sigma^H_{H1,H2} terms for ordered pairs H1 != H2 inside B and
    H outside B transverse to neither."""
    table = transv_table(G)
    bset = frozenset(B)
    out = []
    for hout in range(table.size):
        if hout in bset:
            continue
        bad = [h for h in sorted(bset) if not table.transverse(hout, h)]
        for h1, h2 in permutations(bad, 2):
            out.append(
                SigmaTerm(
                    hout, h1, h2, table.mapped_by(h1, hout), table.mapped_by(h2, hout)
                )
            )
    return out


def _rb_positions(G: Group, B):
    bset = frozenset(B)
    return tuple(
        i for i in range(len(G.reflections)) if G.reflection_hyperplane(i) in bset
    )


def _vector_of_term(term, nrefl, rb):
    """Integer theta-vector of a sigma term; entries live in {-1,0,1}."""
    vec = [0] * (nrefl + 1)
    for s in term.plus:
        assert s not in rb, "sigma support never meets the collection's reflections"
        vec[s] += 1
    for s in term.minus:
        assert s not in rb
        vec[s] -= 1
    return tuple(vec)


def rel_set(G: Group, B):
    """The relation vectors Rel(B): one per r-1 for r a reflection with
    hyperplane in B, plus every sigma difference over hyperplanes outside
    B.  Zero vectors are dropped and duplicates removed."""
    ws = _workspace(G, B)
    if ws.rel_vectors is None:
        nrefl = ws.nrefl
        vecs = []
        seen = set()
        for i in ws.rb:
            vec = [0] * (nrefl + 1)
            vec[i] = 1
            vec[nrefl] = -1
            vecs.append(tuple(vec))
            seen.add(tuple(vec))
        for term in sigma_triples(G, ws.B):
            vec = _vector_of_term(term, nrefl, ws.rb_set)
            if any(vec) and vec not in seen:
                seen.add(vec)
                vecs.append(vec)
        ws.rel_vectors = vecs
    return list(ws.rel_vectors)


def rel_bar(G: Group, B):
    """The projected relation vectors used by the admissibility checks.

    Keeps the r-1 vectors and, for every image collection B' != B of B
    under a single reflection, the projections of the sigma differences
    onto reflections that also map B to B'.  The outer hyperplane ranges
    over B' minus B and the difference pair over B minus B', with both
    required non-transverse to the outer hyperplane.
    """
    ws = _workspace(G, B)
    if ws.rel_bar_vectors is None:
        table = ws.table
        nrefl = ws.nrefl
        bset = frozenset(ws.B)
        vecs = []
        seen = set()
        for i in ws.rb:
            vec = [0] * (nrefl + 1)
            vec[i] = 1
            vec[nrefl] = -1
            vecs.append(tuple(vec))
            seen.add(tuple(vec))
        acts = [G.hyperplane_action(s) for s in G.reflections]
        for bp in small_orbit(G, ws.B):
            pset = frozenset(bp)
            if pset == bset:
                continue
            movers = [
                s
                for s in range(nrefl)
                if frozenset(acts[s][h] for h in ws.B) == pset
            ]
            assert movers, "every small-orbit member is a one-reflection image"
            rows = [h for h in ws.B if h not in pset]
            cols = [h for h in bp if h not in bset]
            cell = {
                (hr, hc): [s for s in table.mapped_by(hr, hc) if s in set(movers)]
                for hr in rows
                for hc in cols
            }
            for hc in cols:
                bad = [hr for hr in rows if not table.transverse(hr, hc)]
                for h1, h2 in permutations(bad, 2):
                    vec = [0] * (nrefl + 1)
                    for s in cell[(h1, hc)]:
                        assert s not in ws.rb_set
                        vec[s] += 1
                    for s in cell[(h2, hc)]:
                        assert s not in ws.rb_set
                        vec[s] -= 1
                    vec = tuple(vec)
                    if any(vec) and vec not in seen:
                        seen.add(vec)
                        vecs.append(vec)
        ws.rel_bar_vectors = vecs
    return list(ws.rel_bar_vectors)


# ---------------------------------------------------------------------------
# span bookkeeping per collection


class _Workspace:
    """Memoized relation data for one (group, collection) pair."""

    def __init__(self, G, B):
        self.G = G
        self.B = tuple(sorted(B))
        self.table = transv_table(G)
        for h in self.B:
            assert 0 <= h < self.table.size
        self.nrefl = len(G.reflections)
        self.rb = _rb_positions(G, self.B)
        self.rb_set = frozenset(self.rb)
        self.rel_vectors = None
        self.rel_bar_vectors = None
        self._span = None
        self._residues = None
        self._dp = None
        self._kb = None
        self._a2b = None

    def span(self) -> SpanBasis:
        if self._span is None:
            basis = SpanBasis(self.nrefl + 1)
            for vec in rel_bar(self.G, self.B):
                basis.add([Fraction(x) for x in vec])
            self._span = basis
        return self._span

    def residues(self):
        """Reduction of every basis unit vector against the span; two
        units differ inside the span exactly when their residues agree."""
        if self._residues is None:
            span = self.span()
            res = []
            for i in range(self.nrefl + 1):
                unit = [Fraction(0)] * (self.nrefl + 1)
                unit[i] = Fraction(1)
                res.append(tuple(span.reduce(unit)))
            self._residues = res
        return self._residues

    def d_and_p(self):
        if self._dp is None:
            res = self.residues()
            classes = {}
            for i, r in enumerate(res):
                classes.setdefault(r, []).append(i)
            d_vecs = []
            p_pairs = []
            for members in classes.values():
                for i, j in permutations(members, 2):
                    vec = [0] * (self.nrefl + 1)
                    vec[i] = 1
                    vec[j] = -1
                    d_vecs.append(tuple(vec))
                    if (
                        i < self.nrefl
                        and j < self.nrefl
                        and i not in self.rb_set
                        and j not in self.rb_set
                    ):
                        p_pairs.append((i, j))
            self._dp = (d_vecs, p_pairs)
        return self._dp

    def stab(self) -> Subgroup:
        return self.G.stabilizer_of(self.B)

    def kb(self) -> Subgroup:
        if self._kb is None:
            self._kb = _k_subgroup(self.G, self.B, self.stab())
        return self._kb

    def a1(self):
        """(some rel_bar vector is literally a unit, some unit lies in the
        span); a unit lies in the span exactly when its residue is zero."""
        literal = any(
            sum(1 for x in vec if x) == 1 for vec in rel_bar(self.G, self.B)
        )
        span_hit = any(not any(r) for r in self.residues())
        return literal, span_hit

    def a2(self):
        d_vecs, p_pairs = self.d_and_p()
        span = self.span()
        d_span = SpanBasis(self.nrefl + 1)
        for vec in d_vecs:
            fv = [Fraction(x) for x in vec]
            assert span.contains(fv), "difference vectors live in the span"
            d_span.add(fv)
        span_eq = d_span.rank == span.rank
        if self._a2b is None:
            G = self.G
            refls = G.reflections
            stab_elements = self.stab().elements
            products = set()
            in_stab = True
            for i, j in p_pairs:
                g = G.mul(G.inv(refls[j]), refls[i])
                if g not in stab_elements:
                    in_stab = False
                    break
                products.add(g)
            if in_stab:
                gens = [refls[i] for i in self.rb] + sorted(products)
                closure = subgroup_closure(G, gens)
                self._a2b = closure.elements == self.kb().elements
            else:
                self._a2b = False
        return span_eq, self._a2b

    def conditional(self) -> bool:
        span_eq, sub_eq = self.a2()
        if not (span_eq and sub_eq):
            return False
        _, p_pairs = self.d_and_p()
        return any(
            self.G.reflection_class_of(i) != self.G.reflection_class_of(j)
            for i, j in p_pairs
        )


def _workspace(G: Group, B) -> _Workspace:
    key = tuple(sorted(B))
    ws = G._adm_cache.get(key)
    if ws is None:
        ws = _Workspace(G, key)
        G._adm_cache[key] = ws
    return ws


# ---------------------------------------------------------------------------
# K_B


def _k_subgroup(G: Group, B, stab: Subgroup) -> Subgroup:
    bset = frozenset(B)
    refls = G.reflections
    rows = G.action_table()
    gens = [refls[i] for i in _rb_positions(G, B)]
    # cross products s2^-1 s1 for reflections with a common image of B
    fibers = {}
    for s in refls:
        act = rows[s]
        img = frozenset(act[h] for h in bset)
        if img != bset:
            fibers.setdefault(img, []).append(s)
    for img, fiber in fibers.items():
        outside = [h for h in bset if h not in img]
        for s1, s2 in permutations(fiber, 2):
            a1, a2 = rows[s1], rows[s2]
            if all(a1[h] != a2[h] for h in outside):
                gens.append(G.mul(G.inv(s2), s1))
    seen = set()
    uniq = []
    for g in gens:
        if g not in seen:
            seen.add(g)
            uniq.append(g)
    sub = subgroup_closure(G, uniq)
    # normal in the setwise stabilizer
    if sub.order > 1:
        sub_gens = small_generating_set(G, sub)
        for w in small_generating_set(G, stab):
            for g in sub_gens:
                assert G.conj(w, g) in sub, "K_B must be normal in Stab(B)"
    return sub


def k_subgroup(G: Group, B) -> Subgroup:
    """The normal subgroup K_B of Stab(B): generated by the reflections
    with hyperplane in B together with all products s2^-1 s1 where s1, s2
    map B to one common image != B while disagreeing on every hyperplane
    of B outside that image."""
    return _workspace(G, B).kb()


# ---------------------------------------------------------------------------
# checks


def d_and_p(G: Group, B):
    """Difference vectors in the span of rel_bar, the reflection pairs
    behind them, and the group elements they reduce to.

    Returns (D, P, D0) where D lists theta(i) - theta(j) vectors inside
    the span, P the ordered reflection-index pairs outside R_B among
    them, and D0 a dict with the products s2^-1 s1, the r - 1 elements,
    and a flag telling whether every product landed in Stab(B).
    """
    ws = _workspace(G, B)
    d_vecs, p_pairs = ws.d_and_p()
    refls = G.reflections
    stab_elements = ws.stab().elements
    products = []
    in_stab = True
    for i, j in p_pairs:
        g = G.mul(G.inv(refls[j]), refls[i])
        ok = g in stab_elements
        in_stab = in_stab and ok
        products.append(g)
    d0 = {
        "products": products,
        "rb": [refls[i] for i in ws.rb],
        "in_stab": in_stab,
    }
    return d_vecs, p_pairs, d0


def check_A1(G: Group, B) -> bool:
    """Whether the rel_bar list literally contains a basis vector, which
    forces e_B to vanish on every module."""
    literal, _ = _workspace(G, B).a1()
    return literal


def check_A2(G: Group, B):
    """(span equality of rel_bar and D, subgroup equality with K_B)."""
    return _workspace(G, B).a2()


# ---------------------------------------------------------------------------
# ideal closure for conditional collections


def d0_ideal_dim(G: Group, B, mu: CycNumber) -> int:
    """Dimension of the two-sided ideal of the stabilizer group algebra
    generated by D0, with the cross-class ratio specialized to mu.

    mu must be a sixth root of unity.  The computation runs over the
    cyclotomic field of order six, with left and right multiplication by
    stabilizer generators acting as basis permutations.
    """
    mu_pow = CycNumber.rational(1)
    for _ in range(6):
        mu_pow = mu_pow * mu
    assert mu_pow == CycNumber.rational(1), "mu must be a sixth root of unity"
    ws = _workspace(G, B)
    span_eq, sub_eq = ws.a2()
    assert span_eq and sub_eq, "the ideal reduction needs property A2"

    classes = G.reflection_classes
    dist = {
        G.reflection_index(H.dist_reflection) for H in hyperplanes(G)
    }
    if len(classes) == 2:
        assert dist <= set(classes[0]) or dist <= set(classes[1])
        orb1 = set(classes[0]) if dist <= set(classes[0]) else set(classes[1])
    else:
        assert len(classes) == 1
        orb1 = set(classes[0])

    stab = ws.stab()
    members = sorted(stab.elements)
    assert members[0] == G.identity
    pos = {g: k for k, g in enumerate(members)}
    size = len(members)

    zero = CycNumber.rational(0)
    one = CycNumber.rational(1)
    refls = G.reflections
    _, p_pairs = ws.d_and_p()
    seeds = []
    seen = set()
    for i in ws.rb:
        key = (pos[refls[i]], one)
        if key not in seen:
            seen.add(key)
            seeds.append(key)
    for i, j in p_pairs:
        g = G.mul(G.inv(refls[j]), refls[i])
        assert g in stab.elements
        if (i in orb1) == (j in orb1):
            ratio = one
        elif i in orb1:
            ratio = mu.inv()
        else:
            ratio = mu
        key = (pos[g], ratio)
        if key not in seen:
            seen.add(key)
            seeds.append(key)

    basis = SpanBasis(size)
    work = []
    for k, ratio in seeds:
        vec = [zero] * size
        vec[k] = vec[k] + one
        vec[0] = vec[0] - ratio
        if basis.add(vec):
            work.append(basis.rows[-1])

    gens = small_generating_set(G, stab)
    moves = []
    for g in gens:
        moves.append([pos[G.mul(g, h)] for h in members])
        moves.append([pos[G.mul(h, g)] for h in members])
    while work:
        vec = work.pop()
        for move in moves:
            img = [zero] * size
            for k, x in enumerate(vec):
                if x:
                    img[move[k]] = x
            if basis.add(img):
                work.append(basis.rows[-1])
    return basis.rank


# ---------------------------------------------------------------------------
# classification


class AdmissibilityRecord:
    """Everything classify() decides about one collection."""

    __slots__ = (
        "orbit",
        "kb_order",
        "admissible_generic",
        "admissible_mu6",
        "conditional",
        "quotient_size",
        "chi_nontrivial",
        "a1",
        "a2_span",
        "a2_subgroup",
        "a1_span_divergence",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        assert not kw

    def as_row(self):
        return {
            "representative": list(self.orbit.representative),
            "cardinality": self.orbit.cardinality,
            "orbit_size": self.orbit.orbit_size,
            "stab_order": self.orbit.stab_order,
            "kb_order": self.kb_order,
            "admissible_generic": self.admissible_generic,
            "admissible_mu6": self.admissible_mu6,
            "conditional": self.conditional,
            "quotient_size": self.quotient_size,
        }

    def __repr__(self):
        return (
            f"AdmissibilityRecord(B={self.orbit.representative}, "
            f"kb={self.kb_order}, q={self.quotient_size})"
        )


def _imprimitive_closed_form(G: Group, B) -> bool:
    """Field-independent admissibility for the monomial family."""
    if not B:
        return True
    keys = [hyperplanes(G)[h].key for h in B]
    if (G.m, G.p) != (2, 2):
        if len(B) == 1:
            return True
        return all(k[0] == "pair" for k in keys)
    labels = {}
    for k in keys:
        assert k[0] == "pair"
        labels.setdefault((k[1], k[2]), set()).add(k[3])
    if any(len(v) == 2 for v in labels.values()):
        return all(len(v) == 2 for v in labels.values())
    return True


def classify(G: Group, B, cfg: FieldConfig = GENERIC) -> AdmissibilityRecord:
    """Run every admissibility check on one collection."""
    return _classify(G, B, cfg, None)


def _classify(G, B, cfg, orbit_rec) -> AdmissibilityRecord:
    ws = _workspace(G, B)
    literal, span_hit = ws.a1()
    a2_span, a2_sub = ws.a2()
    a2 = a2_span and a2_sub
    if literal and a2:
        raise InternalInconsistency(
            f"collection {ws.B}: A1 and A2 cannot both hold"
        )
    cond = ws.conditional()
    admissible_generic = (not literal) and (not cond)
    admissible_mu6 = not literal

    if G.kind == "imprimitive" and not G.reducible:
        expected = _imprimitive_closed_form(G, ws.B)
        if expected != admissible_generic or expected != admissible_mu6:
            raise InternalInconsistency(
                f"collection {ws.B}: closed-form says admissible={expected}, "
                f"machinery says generic={admissible_generic} mu6={admissible_mu6}"
            )

    if orbit_rec is None:
        orb = orbit(G, ws.B)
        stab_order = ws.stab().order
        orbit_rec = OrbitRecord(min(orb), len(orb), stab_order, len(ws.B))
    kb_order = ws.kb().order
    stab_order = orbit_rec.stab_order
    assert stab_order % kb_order == 0

    admissible_now = (
        admissible_mu6 if cfg.mode == "mu_sixth_root" else admissible_generic
    )
    quotient = stab_order // kb_order if admissible_now else 0
    chi_nontrivial = bool(
        cond
        and cfg.mode == "mu_sixth_root"
        and cfg.exponent % 6 != 0
        and admissible_now
    )
    return AdmissibilityRecord(
        orbit=orbit_rec,
        kb_order=kb_order,
        admissible_generic=admissible_generic,
        admissible_mu6=admissible_mu6,
        conditional=cond,
        quotient_size=quotient,
        chi_nontrivial=chi_nontrivial,
        a1=literal,
        a2_span=a2_span,
        a2_subgroup=a2_sub,
        a1_span_divergence=span_hit != literal,
    )


def orbit_records(G: Group):
    """collection_orbits(G), computed once per group: the orbit split does
    not depend on the field configuration."""
    if G._orbit_records is None:
        G._orbit_records = collection_orbits(G)
    return G._orbit_records


def classify_orbits(G: Group, cfg: FieldConfig = GENERIC):
    """One AdmissibilityRecord per orbit of transverse collections,
    ordered by (cardinality, representative)."""
    return [_classify(G, rec.representative, cfg, rec) for rec in orbit_records(G)]


# ---------------------------------------------------------------------------
# dimensions


def dim_from_rows(order: int, rows) -> int:
    """Dimension of the Brauer-Chen algebra from an orbit table.

    rows are AdmissibilityRecord.as_row() dicts, the empty collection
    first, for a group of the given order.  The dimension is counted
    twice: as the sum over admissible collections of |W| / |K_B|, and as
    |W| plus the per-orbit block counts orbit_size^2 * quotient_size.
    Every consistency check, the agreement of the two counts included,
    raises InternalInconsistency.
    """
    first = rows[0]
    if first["cardinality"] != 0 or first["quotient_size"] != order:
        raise InternalInconsistency(
            f"first orbit row is not the empty collection with quotient {order}"
        )
    total = 0
    blocks = order
    for row in rows:
        quotient, kb_order = row["quotient_size"], row["kb_order"]
        if quotient == 0:
            continue
        if order % kb_order:
            raise InternalInconsistency(
                f"|K_B| = {kb_order} does not divide |W| = {order}"
            )
        if quotient * kb_order != row["stab_order"]:
            raise InternalInconsistency(
                f"quotient {quotient} * |K_B| {kb_order} != "
                f"|Stab| {row['stab_order']}"
            )
        total += row["orbit_size"] * (order // kb_order)
        if row["cardinality"] > 0:
            blocks += row["orbit_size"] ** 2 * quotient
    if total != blocks:
        raise InternalInconsistency(
            f"dimension double-entry mismatch: {total} != {blocks}"
        )
    return total


def dim_brauer(G: Group, cfg: FieldConfig = GENERIC) -> int:
    """Dimension of the Brauer-Chen algebra over the configured field,
    by dim_from_rows over the orbit classification."""
    return dim_from_rows(G.order, [rec.as_row() for rec in classify_orbits(G, cfg)])


def dim_gmpn_formula(m: int, p: int, n: int) -> int:
    """Closed form for the dimension over the monomial group with
    parameters (m, p, n), excluding the (2,2) family."""
    if m < 1 or n < 2 or p < 1 or m % p:
        raise InvalidParameters(f"bad parameters ({m},{p},{n})")
    if (m, p) == (2, 2):
        raise InvalidParameters("the (2,2) family has its own closed form")
    matchings = sum(
        (factorial(n) // (factorial(r) * 2**r * factorial(n - 2 * r))) ** 2
        * factorial(n - 2 * r)
        for r in range(1, n // 2 + 1)
    )
    base = factorial(n) * m**n // p
    diag = 0 if p == m else factorial(n) * m ** (n - 1) * n
    assert (m ** (n + 1)) % p == 0
    return base + diag + (m ** (n + 1) // p) * matchings


def dim_g22n_formula(n: int) -> int:
    """Closed form for the dimension over the (2,2,n) monomial group."""
    if n < 3:
        raise InvalidParameters("the (2,2,n) closed form needs n >= 3")
    matchings = sum(
        (factorial(n) // (factorial(r) * 2**r * factorial(n - 2 * r))) ** 2
        * factorial(n - 2 * r)
        for r in range(1, n // 2 + 1)
    )
    return factorial(n) * 2 ** (n - 1) + (2**n + 1) * matchings


# ---------------------------------------------------------------------------
# monomial membership shortcut


def _collection_shape(G: Group, B):
    """("single", blocks) for pairwise index-disjoint pair hyperplanes,
    ("doubled", blocks) for the (2,2,n) both-labels form, else None."""
    keys = [hyperplanes(G)[h].key for h in B]
    if not keys or any(k[0] != "pair" for k in keys):
        return None
    flat = [i for k in keys for i in (k[1], k[2])]
    if len(set(flat)) == len(flat):
        return "single", [(k[1], k[2], k[3]) for k in keys]
    if (G.m, G.p) != (2, 2):
        return None
    labels = {}
    for k in keys:
        labels.setdefault((k[1], k[2]), set()).add(k[3])
    pairs = sorted(labels)
    flat = [i for ij in pairs for i in ij]
    if len(set(flat)) == len(flat) and all(
        labels[ij] == {0, 1} for ij in pairs
    ):
        return "doubled", pairs
    return None


def kb_membership_gmpn(G: Group, elem, B) -> bool:
    """Matrix test for membership in K_B over a monomial group, for the
    two closed-form collection shapes.

    For pairwise index-disjoint pair hyperplanes: elem stabilizes B, is
    the identity on the unused coordinates, and its diagonal part has
    block values summing to zero mod m after untwisting the labels.  For
    the doubled (2,2,n) shape: elem stabilizes B and its permutation
    fixes every unused index.  The outcome is asserted against explicit
    subgroup closure.
    """
    if G.kind != "imprimitive":
        raise InvalidParameters("membership shortcut needs a monomial group")
    shape = _collection_shape(G, B)
    if shape is None:
        raise InvalidParameters(f"collection {tuple(B)} has no closed-form shape")
    kind, blocks = shape
    assert 0 <= elem < G.order

    act = G.hyperplane_action(elem)
    value = G.element(elem)
    bset = frozenset(B)
    in_stab = frozenset(act[h] for h in bset) == bset

    n = G.n
    used = set()
    for blk in blocks:
        used.add(blk[0])
        used.add(blk[1])
    unused = [l for l in range(n) if l not in used]

    if kind == "doubled":
        got = in_stab and all(value.perm[l] == l for l in unused)
    else:
        gamma = [0] * n
        for i, j, kappa in blocks:
            gamma[i] = kappa
        twist = Monomial(G.m, tuple(range(n)), gamma)
        base = twist.inv() * value * twist
        ok = in_stab
        ok = ok and all(base.perm[l] == l and base.exps[l] == 0 for l in unused)
        if ok:
            lam = []
            for i, j, _ in blocks:
                if base.exps[i] != base.exps[j]:
                    ok = False
                    break
                lam.append(base.exps[i])
            ok = ok and sum(lam) % G.m == 0
        got = ok

    expected = elem in k_subgroup(G, B)
    assert got == expected, (
        f"matrix membership disagrees with closure on {value!r} for B={tuple(B)}"
    )
    return got
