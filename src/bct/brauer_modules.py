"""Explicit Brauer-Chen modules over a formal scalar ring.

A transverse collection B with an admissible quotient carries a module
built by induction: the underlying space is one copy of a Stab(B)
representation V0 per collection in the orbit walk Stab(B) keeps, and
each hyperplane H acts through an operator assembled blockwise from a
three-case rule (scaling by delta on blocks whose collection contains
H, zero on blocks transverse to H, and a weighted sum of reflections
otherwise).  All scalars are Laurent polynomials with integer
coefficients in delta and one parameter per reflection class, so every
identity checked here is exact and holds before any specialization.
Each module derives that ring from its group once and keeps one object
per variable.  Group elements act by permuting the basis, so
multiplying by one is a re-indexing of an operator's entries, and
multiplying by delta or one class parameter is a shift of one exponent.

The checks offered are the five defining relations of the algebra on
such a module, checked once per W-orbit of hyperplanes, reflections and
pairs as the group core lists them, and the semisimplicity census, the
sum of squared dimensions of the simple modules set against the algebra
dimension.  That sum is the second count of dim_from_rows over the same
rows, so the census holds wherever dim_from_rows returns and is no
independent oracle.
"""

from collections import Counter

from .admissibility import classify, classify_orbits, collection, dim_brauer
from .errors import InternalInconsistency, NotAdmissible, NotAdmissiblePair
from .exact_arith import LaurentScalar
from .reflection_groups import Group
from .transversality import transv_table


# ---------------------------------------------------------------------------
# sparse operators

# Operators are sparse matrices: dict (row, col) -> LaurentScalar with no
# zero values stored, so equality is plain dict equality.


def op_compose(a, b):
    """Matrix product a*b of two sparse operators.

    Operators share few distinct entry objects (delta, the class
    parameters and their sums), so each product of two entry objects is
    formed once per call; both stay alive in a and b, so their ids are
    stable keys."""
    rows_of_b = {}
    for (i, j), c in b.items():
        rows_of_b.setdefault(i, []).append((j, c))
    products = {}
    out = {}
    for (i, k), ca in a.items():
        for j, cb in rows_of_b.get(k, ()):
            pair = (id(ca), id(cb))
            v = products.get(pair)
            if v is None:
                v = products[pair] = ca * cb
            key = (i, j)
            s = out.get(key)
            out[key] = v if s is None else s + v
    return {k: v for k, v in out.items() if v}


def op_add(a, b):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key)
        out[key] = c if s is None else s + c
    return {k: v for k, v in out.items() if v}


def op_shift(a, slot: int):
    """The operator times the variable in `slot` (delta is slot 0); each
    distinct entry object is shifted once, as in op_compose."""
    shifted = {}
    out = {}
    for k, v in a.items():
        s = shifted.get(id(v))
        if s is None:
            s = shifted[id(v)] = v.shift(slot)
        out[k] = s
    return out


def op_permute(a, rows):
    """Re-index a sparse operator: entry (i, j) moves to (rows[i], j).  For
    rows = M.perm_of(g) this is op_of(g) * a; perm_of checks that rows is a
    bijection."""
    return {(rows[i], j): v for (i, j), v in a.items()}


# ---------------------------------------------------------------------------
# Stab(B) representations


class StabRep:
    """The regular representation of Stab(B)/N pulled back to Stab(B), for
    a normal subgroup N (the kernel): K_B for the quotient regular
    representation, Stab(B) for the trivial one.  Data only: basis vector
    i is the coset r_i N, with r_i the smallest member of its coset, in
    the order of those members, so the cosets cover Stab(B); induce()
    checks that N is a subgroup and V0's kernel (_check_stab_action).
    """

    __slots__ = ("group", "stab", "kernel", "reps", "degree")

    def __init__(self, G: Group, stab, kernel):
        self.group = G
        self.stab = stab
        self.kernel = kernel
        coset_of = G.left_mul(sorted(kernel.elements))
        seen = set()
        reps = []
        for g in sorted(stab.elements):
            if g not in seen:
                seen.update(coset_of(g))
                reps.append(g)
        self.reps = tuple(reps)
        self.degree = len(reps)

    def __repr__(self):
        return f"StabRep(degree={self.degree}, stab_order={self.stab.order})"


def trivial_rep(G: Group, B) -> StabRep:
    """Degree-1 representation with every element of Stab(B) acting as 1."""
    stab = G.stabilizer_of(B)
    return StabRep(G, stab, stab)


def quotient_regular_rep(G: Group, B) -> StabRep:
    """Regular representation of Stab(B)/K_B pulled back to Stab(B).

    Contains every irreducible constituent that can appear in an
    admissible pair over B, so relation checks on the induced module
    cover all simple modules at once.  Refuses B exactly when its generic
    quotient is 0, which covers both fields: they agree outside conditional
    collections, and at a sixth root a conditional collection's twisting
    character is non-trivial, while the regular quotient assumes K_B acts
    trivially.
    """
    B = tuple(sorted(B))
    rec = classify(G, B)
    quotient = rec.quotient()
    if quotient == 0:
        detail = (
            "conditional collection: not admissible for generic parameters, "
            "and at a sixth root its twisting character is non-trivial, while "
            "the quotient regular representation requires K_B to act trivially"
            if rec.conditional
            else "collection is not admissible"
        )
        raise NotAdmissible(f"B={B}: {detail}")
    rep = StabRep(G, G.stabilizer_of(B), rec.kb)
    if rep.degree != quotient:
        raise InternalInconsistency(
            f"B={B}: {rep.degree} cosets of K_B, classified {quotient}"
        )
    return rep


# ---------------------------------------------------------------------------
# induced modules


class InducedModule:
    """The module induced from (B, V0), with explicit sparse operators: by
    transitivity of induction, W permuting the left cosets of V0's kernel N.

    Basis vector c = t*deg + i is the coset x_c N with x_c = w_t r_i: w_t,
    the orbit walk's witness, maps B onto the t-th collection of its orbit
    (w_0 = 1), and r_i is V0's i-th coset representative.  One table maps
    every element of W to the basis vector of its coset, so g sends c to
    the table entry of g x_c.  Group elements are element indices.

    The module's scalar ring has delta in slot 0 and the parameter of
    reflection class c in slot 1 + c, one object per variable (mu and
    mu_slot by reflection position): op_compose keys its products by id,
    and B2 tests identity first.
    """

    __slots__ = (
        "group",
        "B",
        "v0",
        "blocks",
        "degree",
        "dim",
        "eps",
        "one",
        "delta",
        "mu",
        "mu_slot",
        "_table",
        "_translates",
        "_v0_translates",
        "_perm_memo",
    )

    def __init__(self, G, B, v0, blocks, witnesses):
        self.group = G
        self.B = B
        self.v0 = v0
        self.blocks = blocks
        self.degree = v0.degree
        self.eps = None
        nvars = 1 + len(G.reflection_classes)
        self.one = LaurentScalar.one(nvars)
        self.delta = LaurentScalar.variable(nvars, 0)
        params = [LaurentScalar.variable(nvars, 1 + c) for c in range(nvars - 1)]
        classes = [G.reflection_class_of[r] for r in range(len(G.reflections))]
        self.mu = tuple(params[c] for c in classes)
        self.mu_slot = tuple(1 + c for c in classes)
        self._v0_translates = G.left_mul(v0.reps)
        basis = [x for w in witnesses for x in self._v0_translates(w)]
        self.dim = len(basis)
        coset_of = G.left_mul(sorted(v0.kernel.elements))
        table = [None] * G.order
        for c, x in enumerate(basis):
            for y in coset_of(x):
                table[y] = c
        # with dim * |N| labels, a full table labels each element once
        if self.dim * v0.kernel.order != G.order or None in table:
            raise InternalInconsistency(
                f"B={B}: the {self.dim} basis cosets do not partition the group"
            )
        self._table = table
        self._translates = G.left_mul(basis)
        self._perm_memo = {}

    def perm_of(self, g):
        """Basis permutation of a group element: the tuple p such that g
        maps basis vector c to basis vector p[c].  Memoized per element."""
        out = self._perm_memo.get(g)
        if out is None:
            out = tuple(map(self._table.__getitem__, self._translates(g)))
            if len(set(out)) != self.dim:
                raise InternalInconsistency(f"element {g} does not permute the basis")
            self._perm_memo[g] = out
        return out

    def op_of(self, g):
        """Sparse matrix of a group element on the whole module: the
        permutation matrix of perm_of(g)."""
        return {(r, c): self.one for c, r in enumerate(self.perm_of(g))}

    def __repr__(self):
        return (
            f"InducedModule(B={self.B}, blocks={len(self.blocks)}, "
            f"dim={self.dim})"
        )


def induce(G: Group, B, v0: StabRep) -> InducedModule:
    """Build the induced module of (B, V0) with its hyperplane operators;
    the partition check and _check_stab_action prove that every element
    of W acts through the cosets of V0's kernel, and as V0 on block 0.

    Raises NotAdmissiblePair when some relation vector of B fails to
    annihilate the embedded copy of V0, which is exactly the criterion
    for the pair to define a module.
    """
    B = tuple(sorted(B))
    stab = G.stabilizer_of(B)
    if v0.group is not G or v0.stab.elements != stab.elements:
        raise InternalInconsistency(f"B={B}: V0 is not a representation of Stab(B)")
    module = InducedModule(G, B, v0, *stab.walk)
    _check_stab_action(module)
    _check_rel_annihilation(module)
    module.eps = {
        hid: _eps_operator(module, hid) for hid in range(len(G.hyperplanes))
    }
    return module


def _check_stab_action(module: InducedModule):
    """V0's kernel N is a subgroup that fixes block 0, so perm_of is W's
    action on the cosets of N, and Stab(B) acts on V0 with kernel N.

    (A) N holds N*k for each generator k it keeps.  A Subgroup from _sift
    or stabilizer holds only products of its generators, so the finite N
    is closed under products: a subgroup.  With the partition check,
    table[y*n] = table[y] for n in N, so perm_of(1) = 1 and perm_of(ab) =
    perm_of(a) perm_of(b) for all a, b in W (left_mul and right_coset
    agree with mul).  The r_i cover Stab(B) and deg*|N| = |Stab(B)|, so N
    lies in Stab(B), which keeps block 0.  (B) Each k fixes block 0:
    table[k r_i] = i, deg lookups, with no permutation of length dim.
    """
    G, N, table = module.group, module.v0.kernel, module._table
    for k in N.generators:
        if not N.elements.issuperset(G.right_coset(N.elements, k)):
            raise InternalInconsistency(
                f"B={module.B}: the kernel of V0 is not closed under its generator {k}"
            )
        if any(table[y] != i for i, y in enumerate(module._v0_translates(k))):
            raise InternalInconsistency(
                f"B={module.B}: the kernel of V0 does not fix block 0"
            )


def _check_rel_annihilation(module: InducedModule):
    """Every relation vector of B, read as an operator, must kill block 0."""
    G, B, deg = module.group, module.B, module.degree
    nrefl = len(G.reflections)
    col = collection(G, B)
    rb = col.rb_set
    for vec in col.rel_vectors:
        acc = {}
        for k, coeff in enumerate(vec):
            if coeff:
                # slot nrefl is the identity, which fixes every basis vector
                p = range(deg) if k == nrefl else module.perm_of(G.reflections[k])
                base = module.mu[k] if k < nrefl and k not in rb else module.one
                scale = base * coeff
                acc = op_add(acc, {(p[j], j): scale for j in range(deg)})
        if acc:
            raise NotAdmissiblePair(
                f"B={B}: relation vector {vec} does not annihilate the "
                "embedded representation"
            )


def _eps_operator(module: InducedModule, hid: int):
    """Three-case blockwise operator of one hyperplane.

    When several members of a block's collection are non-transverse with
    the hyperplane, each choice must give the same block (a consequence
    of the relation vectors annihilating every block); checked, not
    assumed.
    """
    G = module.group
    table = transv_table(G)
    deg, delta = module.degree, module.delta
    out = {}
    for src, bcol in enumerate(module.blocks):
        base_c = src * deg
        if hid in bcol:
            out.update(((c, c), delta) for c in range(base_c, base_c + deg))
            continue
        nontrans = [h for h in bcol if not table.transverse(hid, h)]
        if not nontrans:
            continue
        choices = []
        for hp in nontrans:
            block_op = {}
            for ridx in table.mapped_by(hp, hid):
                s = G.reflections[ridx]
                act = G.hyperplane_action(s)
                if hid not in [act[h] for h in bcol]:
                    raise InternalInconsistency(
                        f"reflection #{ridx} does not bring hyperplane {hid} into the block"
                    )
                p = module.perm_of(s)
                mus = module.mu[ridx]
                for c in range(base_c, base_c + deg):
                    key = (p[c], c)
                    prev = block_op.get(key)
                    block_op[key] = mus if prev is None else prev + mus
            choices.append({k: v for k, v in block_op.items() if v})
        for other in choices[1:]:
            if other != choices[0]:
                raise InternalInconsistency(
                    f"eps of hyperplane {hid} depends on the member chosen in {bcol}"
                )
        out.update(choices[0])
    return out


# ---------------------------------------------------------------------------
# relation verification


class RelationReport:
    """Outcome of the five defining-relation checks on one module."""

    __slots__ = ("results", "first_counterexample")

    def __init__(self, results, first_counterexample):
        self.results = results
        self.first_counterexample = first_counterexample

    @property
    def all_pass(self) -> bool:
        return all(self.results.values())

    def as_dict(self):
        return {
            "relations": dict(self.results),
            "all_pass": self.all_pass,
            "first_counterexample": self.first_counterexample,
        }

    def __repr__(self):
        return f"RelationReport({self.results})"


def b5_rhs(M: InducedModule, h1: int, h2: int):
    """Right-hand side of B5 for a non-transverse pair: the sum over the
    reflections r mapping h2 to h1 of mu_r * r * eps(h2), each term a
    re-indexing of eps(h2) shifted in the exponent of mu_r."""
    G = M.group
    e2 = M.eps[h2]
    out = {}
    for ridx in transv_table(G).mapped_by(h2, h1):
        term = op_permute(e2, M.perm_of(G.reflections[ridx]))
        out = op_add(out, op_shift(term, M.mu_slot[ridx]))
    return out


def verify_defining_relations(M: InducedModule) -> RelationReport:
    """Check the five defining relations as exact sparse-matrix identities.

    B2, P_w eps(H) P_w^-1 = eps(wH) for P_w = perm_of(w), is checked first,
    by transport from block 0, which spans V0 (block t is P_{w_t} V0, w_t
    the orbit walk's witness): for t > 0, P_{w_t} must carry the entries of
    each eps(H) in block-0 columns one for one (equal counts) onto those of
    eps(w_t H) in block-t columns, and so must, with t = 0, each generator
    `stabilizer` kept for Stab(B).  By induction on words in those, which
    keep V0, eps(yH) P_y v = P_y eps(H) v for v in V0 and y in Stab(B),
    hence for every y = w_t y'; the P_y v span M, so P_w eps(H) = eps(wH)
    P_w for every w (Frobenius reciprocity for induced modules).
    Conjugation by w then carries each relation at H, at (H, H') or at a
    reflection r to the same relation at wH, at (wH, wH') or at wrw^-1:
    transversality and the mapping reflections of a pair are
    W-equivariant, and each class parameter is constant on a reflection
    class.  So once B2 holds, B1, B3, B4 and B5 are checked on the
    smallest member of each orbit of hyperplanes, of reflections, of
    unordered transverse pairs and of ordered non-transverse pairs.  If B2
    fails, the same loops run over every hyperplane, reflection and pair
    instead.  Either way representatives are visited in ascending order,
    so the flags and the first counterexample are those of the loops over
    every member.

    Products with group elements re-index entries through the basis
    permutations; products of two eps are sparse products.  Failures are
    reported, never raised.
    """
    G = M.group
    table = transv_table(G)
    labels = [h.label for h in G.hyperplanes]
    nh = len(labels)
    results = {name: True for name in ("B1", "B2", "B3", "B4", "B5")}
    first = None

    def fail(name, message):
        nonlocal first
        results[name] = False
        if first is None:
            first = f"{name}: {message}"

    deg = M.degree
    block0 = {h: {k: v for k, v in e.items() if k[1] < deg} for h, e in M.eps.items()}
    counts = {h: Counter(j // deg for _, j in e) for h, e in M.eps.items()}

    def conjugation_failure(t, w):
        """The first H whose block-0 entries perm_of(w) does not carry onto
        eps(wH)'s block-t columns, identity test first (entries share objects)."""
        p = M.perm_of(w)
        act = G.hyperplane_action(w)
        for hid in range(nh):
            e, target = block0[hid], M.eps[act[hid]]
            if len(e) != counts[act[hid]][t]:
                return hid
            for (i, j), v in e.items():
                x = target.get((p[i], p[j]))
                if x is not v and x != v:
                    return hid
        return None

    stab = G.stabilizer_of(M.B)
    moves = list(enumerate(stab.walk[1]))[1:] + [(0, k) for k in stab.generators]
    conj_fail = next(
        ((w, hid) for t, w in moves if (hid := conjugation_failure(t, w)) is not None),
        None,
    )

    hids = range(nh)
    ridxs = range(len(G.reflections))
    pairs = [(i, j) for i in range(nh) for j in range(i + 1, nh)]
    ordered = [(i, j) for i in range(nh) for j in range(nh) if i != j]
    if conj_fail is None:
        # one member per orbit, the smallest, in ascending order
        hids = [o[0] for o in G.hyperplane_orbits]
        ridxs = [c[0] for c in G.reflection_classes]
        pairs = [o[0] for o in G.pair_orbits]
        ordered = [o[0] for o in G.ordered_pair_orbits]

    for hid in hids:
        e = M.eps[hid]
        if op_compose(e, e) != op_shift(e, 0):
            fail("B1", f"eps({labels[hid]})^2 != delta*eps({labels[hid]})")
            break

    if conj_fail is not None:
        w, hid = conj_fail
        fail("B2", f"w*eps({labels[hid]})*w^-1 != eps(w H) for w={w}")

    for ridx in ridxs:
        hid = G.reflection_hyperplane[ridx]
        e = M.eps[hid]
        if op_permute(e, M.perm_of(G.reflections[ridx])) != e:
            fail("B3", f"r*eps({labels[hid]}) != eps({labels[hid]}) for r#{ridx}")
            break

    for h1, h2 in pairs:
        if not table.transverse(h1, h2):
            continue
        e1, e2 = M.eps[h1], M.eps[h2]
        if op_compose(e1, e2) != op_compose(e2, e1):
            fail("B4", f"eps({labels[h1]}) and eps({labels[h2]}) do not commute")
            break

    for h1, h2 in ordered:
        if table.transverse(h1, h2):
            continue
        if op_compose(M.eps[h1], M.eps[h2]) != b5_rhs(M, h1, h2):
            fail(
                "B5",
                f"eps({labels[h1]})*eps({labels[h2]}) != "
                f"sum over mapping reflections",
            )
            break

    return RelationReport(results, first)


# ---------------------------------------------------------------------------
# census


def semisimplicity_census(G: Group, mu6=False):
    """(sum of squared simple-module dimensions, algebra dimension), with
    generic parameters or with mu at a primitive sixth root when mu6.

    Each admissible orbit contributes orbit_size^2 * quotient: the
    simple modules over that orbit are indexed by the irreducibles of
    the quotient Stab(B)/K_B, and induction scales dimensions by the
    orbit size.  The two numbers must agree; a mismatch is an internal
    error, not a report entry.  The sum of squares is the second count
    of dim_from_rows over the same rows, so it holds whenever that
    double count does and adds no check of its own.
    """
    ss = sum(r.orbit.orbit_size**2 * r.quotient(mu6) for r in classify_orbits(G))
    dim = dim_brauer(G, mu6)
    if ss != dim:
        raise InternalInconsistency(
            f"census mismatch for {G.name}: sum of squares {ss} != dimension {dim}"
        )
    return ss, dim
