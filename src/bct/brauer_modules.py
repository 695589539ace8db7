"""Explicit Brauer-Chen modules over a formal scalar ring.

A transverse collection B with an admissible quotient carries a module
built by induction: the underlying space is one copy of a Stab(B)
representation V0 per collection in the orbit of B, and each hyperplane
H acts through an operator assembled blockwise from a three-case rule
(scaling by delta on blocks whose collection contains H, zero on blocks
transverse to H, and a weighted sum of reflections otherwise).  All
scalars are Laurent polynomials with integer coefficients in delta and
one parameter per reflection class, so every identity checked here is
exact and holds before any specialization.  Group elements act by
permuting the basis, so multiplying by one is a re-indexing of an
operator's entries, and multiplying by delta or one class parameter is a
shift of one exponent.

The checks offered are the five defining relations of the algebra on
such a module, and the census identity equating the algebra dimension
with the sum of squared dimensions of the simple modules.
"""

import random

from .admissibility import (
    GENERIC,
    FieldConfig,
    classify,
    classify_orbits,
    dim_from_rows,
    k_subgroup,
    rel_set,
)
from .errors import InternalInconsistency, NotAdmissible, NotAdmissiblePair
from .exact_arith import LaurentScalar
from .reflection_groups import Group, bfs, hyperplanes, small_generating_set
from .transversality import transv_table


# ---------------------------------------------------------------------------
# scalars and sparse operators

# Operators are sparse matrices: dict (row, col) -> LaurentScalar with no
# zero values stored, so equality is plain dict equality.


def scalar_ring_size(G: Group) -> int:
    """Number of formal variables: delta plus one per reflection class."""
    return 1 + len(G.reflection_classes)


def delta_scalar(G: Group) -> LaurentScalar:
    return LaurentScalar.variable(scalar_ring_size(G), 0)


def mu_slot(G: Group, refl_idx: int) -> int:
    """Variable slot of the class parameter of the given reflection."""
    return 1 + G.reflection_class_of(refl_idx)


def mu_scalar(G: Group, refl_idx: int) -> LaurentScalar:
    """The class parameter of the given reflection."""
    return LaurentScalar.variable(scalar_ring_size(G), mu_slot(G, refl_idx))


def _one(G: Group) -> LaurentScalar:
    return LaurentScalar.one(scalar_ring_size(G))


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


def op_permute(a, rows, cols=None):
    """Re-index a sparse operator: entry (i, j) moves to (rows[i], cols[j]),
    or to (rows[i], j) without cols.  For rows = M.perm_of(g) this is
    op_of(g) * a; for cols = perm_inverse(M.perm_of(h)) it is a * op_of(h).
    Both permutations must be bijections, which perm_of checks."""
    if cols is None:
        return {(rows[i], j): v for (i, j), v in a.items()}
    return {(rows[i], cols[j]): v for (i, j), v in a.items()}


def perm_inverse(p):
    """The inverse permutation q, with q[p[i]] = i."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# Stab(B) representations


class StabRep:
    """Permutation representation of Stab(B) on a fixed basis.

    The action is stored as a permutation per element (computed lazily),
    which covers every representation this package constructs: quotient
    regular representations and the trivial representation.  The
    homomorphism property is verified at construction on a generating
    set plus a seeded random sample; the annihilation requirement on the
    relation vectors of B is checked by induce() before the
    representation is used.
    """

    __slots__ = ("group", "stab", "degree", "_perm_fn", "_memo")

    def __init__(self, G: Group, stab, degree: int, perm_fn):
        self.group = G
        self.stab = stab
        self.degree = degree
        self._perm_fn = perm_fn
        self._memo = {}

        if self.perm(G.identity) != tuple(range(degree)):
            raise InternalInconsistency("the identity does not act trivially")
        pool = sorted(stab.elements)
        rng = random.Random(2)
        sample = small_generating_set(G, stab) + rng.sample(
            pool, min(4, len(pool))
        )
        for a in sample:
            pa = self.perm(a)
            for b in sample:
                pb = self.perm(b)
                if self.perm(G.mul(a, b)) != tuple(pa[k] for k in pb):
                    raise InternalInconsistency(
                        f"Stab(B) representation is not multiplicative on {a}, {b}"
                    )

    def perm(self, h):
        out = self._memo.get(h)
        if out is None:
            if h not in self.stab.elements:
                raise InternalInconsistency(f"element {h} is not in Stab(B)")
            out = tuple(self._perm_fn(h))
            self._memo[h] = out
        return out

    def matrix(self, h):
        """Sparse permutation matrix of one element."""
        one = _one(self.group)
        return {(i, j): one for j, i in enumerate(self.perm(h))}

    @property
    def images(self):
        """Matrices of a small generating set of Stab(B)."""
        return {
            g: self.matrix(g) for g in small_generating_set(self.group, self.stab)
        }

    def __repr__(self):
        return f"StabRep(degree={self.degree}, stab_order={self.stab.order})"


def trivial_rep(G: Group, B) -> StabRep:
    """Degree-1 representation with every element of Stab(B) acting as 1."""
    return StabRep(G, G.stabilizer_of(B), 1, lambda h: (0,))


def quotient_regular_rep(G: Group, B, cfg: FieldConfig = GENERIC) -> StabRep:
    """Regular representation of Stab(B)/K_B pulled back to Stab(B).

    Contains every irreducible constituent that can appear in an
    admissible pair over B, so relation checks on the induced module
    cover all simple modules at once.  Refuses collections that are not
    admissible under cfg, and conditional collections whose twisting
    character is non-trivial (the regular quotient assumes K_B acts
    trivially).
    """
    B = tuple(sorted(B))
    rec = classify(G, B, cfg)
    if rec.quotient_size == 0:
        detail = (
            "conditional collection needs the sixth-root field configuration"
            if rec.conditional
            else "collection is not admissible"
        )
        raise NotAdmissible(f"B={B}: {detail}")
    if rec.chi_nontrivial:
        raise NotAdmissible(
            f"B={B}: twisting character is non-trivial; the quotient regular "
            "representation requires K_B to act trivially"
        )
    stab = G.stabilizer_of(B)
    kb = k_subgroup(G, B)
    reps = []
    coset_index = {}
    for g in sorted(stab.elements):
        if g in coset_index:
            continue
        idx = len(reps)
        reps.append(g)
        for k in kb.elements:
            coset_index[G.mul(g, k)] = idx
    if len(reps) != rec.quotient_size:
        raise InternalInconsistency(
            f"B={B}: {len(reps)} cosets of K_B, classified {rec.quotient_size}"
        )
    rep = StabRep(
        G, stab, len(reps), lambda h: tuple(coset_index[G.mul(h, r)] for r in reps)
    )
    for k in small_generating_set(G, kb):
        if rep.perm(k) != tuple(range(len(reps))):
            raise InternalInconsistency(f"B={B}: K_B does not act trivially")
    return rep


# ---------------------------------------------------------------------------
# induced modules


class InducedModule:
    """The module induced from (B, V0), with explicit sparse operators.

    Basis: one block of V0-coordinates per collection in the orbit of B,
    block t spanned by w_t * (embedded V0) where w_t maps B to the t-th
    collection.  Block 0 is B itself with w_0 = 1.  Group elements, the
    coset representatives w_t included, are element indices.
    """

    __slots__ = (
        "group",
        "B",
        "v0",
        "blocks",
        "coset_reps",
        "degree",
        "dim",
        "eps",
        "_block_index",
        "_perm_memo",
        "_rep_inverses",
    )

    def __init__(self, G, B, v0, blocks, coset_reps, eps):
        self.group = G
        self.B = B
        self.v0 = v0
        self.blocks = blocks
        self.coset_reps = coset_reps
        self.degree = v0.degree
        self.dim = len(blocks) * v0.degree
        self.eps = eps
        self._block_index = {b: t for t, b in enumerate(blocks)}
        self._perm_memo = {}
        self._rep_inverses = [G.inv(w) for w in coset_reps]

    def transport(self, tgt: int, g: int, src: int) -> int:
        """The element w_tgt^-1 g w_src of Stab(B)."""
        G = self.group
        return G.mul(G.mul(self._rep_inverses[tgt], g), self.coset_reps[src])

    def perm_of(self, g):
        """Basis permutation of a group element: the tuple p such that g
        maps basis vector c to basis vector p[c].  Memoized per element."""
        out = self._perm_memo.get(g)
        if out is not None:
            return out
        act = self.group.hyperplane_action(g)
        deg = self.degree
        out = [None] * self.dim
        for src, bcol in enumerate(self.blocks):
            img = tuple(sorted(act[h] for h in bcol))
            tgt = self._block_index[img]
            # StabRep.perm raises unless w_t^-1 g w_s lies in Stab(B)
            p = self.v0.perm(self.transport(tgt, g, src))
            base_r = tgt * deg
            base_c = src * deg
            for j in range(deg):
                out[base_c + j] = base_r + p[j]
        out = tuple(out)
        if len(set(out)) != self.dim:
            raise InternalInconsistency(f"element {g} does not permute the basis")
        self._perm_memo[g] = out
        return out

    def op_of(self, g):
        """Sparse matrix of a group element on the whole module: the
        permutation matrix of perm_of(g)."""
        one = _one(self.group)
        return {(r, c): one for c, r in enumerate(self.perm_of(g))}

    def __repr__(self):
        return (
            f"InducedModule(B={self.B}, blocks={len(self.blocks)}, "
            f"dim={self.dim})"
        )


def _orbit_with_witnesses(G: Group, B):
    """BFS orbit of B under the hyperplane action, with one witness
    element per collection; B itself comes first with witness 1.  The
    witness of a collection reached from a parent by generator g is g
    times the parent's witness."""
    blocks, tree = bfs(
        [B],
        G.generators,
        lambda bcol, g: tuple(sorted(G.hyperplane_action(g)[h] for h in bcol)),
    )
    reps = [G.identity]
    for parent, g in tree[1:]:
        reps.append(G.mul(g, reps[parent]))
    return blocks, reps


def induce(G: Group, B, v0: StabRep) -> InducedModule:
    """Build the induced module of (B, V0) with its hyperplane operators.

    Raises NotAdmissiblePair when some relation vector of B fails to
    annihilate the embedded copy of V0, which is exactly the criterion
    for the pair to define a module.
    """
    B = tuple(sorted(B))
    if v0.group is not G or v0.stab.elements != G.stabilizer_of(B).elements:
        raise InternalInconsistency(f"B={B}: V0 is not a representation of Stab(B)")
    blocks, coset_reps = _orbit_with_witnesses(G, B)
    module = InducedModule(G, B, v0, blocks, coset_reps, eps=None)
    _check_rel_annihilation(module)
    module.eps = {
        hid: _eps_operator(module, hid) for hid in range(len(hyperplanes(G)))
    }
    return module


def _check_rel_annihilation(module: InducedModule):
    """Every relation vector of B, read as an operator, must kill block 0."""
    G = module.group
    B = module.B
    deg = module.degree
    nrefl = len(G.reflections)
    rb = {i for h in B for i in G.hyperplane_reflections(h)}
    one = _one(G)
    for vec in rel_set(G, B):
        acc = {}
        for k, coeff in enumerate(vec):
            if not coeff:
                continue
            if k == nrefl:
                scale = one * coeff
                term = {(j, j): scale for j in range(deg)}
            else:
                scale = one * coeff if k in rb else mu_scalar(G, k) * coeff
                p = module.perm_of(G.reflections[k])
                term = {(p[j], j): scale for j in range(deg)}
            acc = op_add(acc, term)
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
    deg = module.degree
    delta = delta_scalar(G)
    out = {}
    for src, bcol in enumerate(module.blocks):
        base_c = src * deg
        if hid in bcol:
            for j in range(deg):
                out[(base_c + j, base_c + j)] = delta
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
                img = tuple(sorted(act[h] for h in bcol))
                if hid not in img:
                    raise InternalInconsistency(
                        f"reflection #{ridx} does not bring hyperplane {hid} into the block"
                    )
                tgt = module._block_index[img]
                p = module.v0.perm(module.transport(tgt, s, src))
                mus = mu_scalar(G, ridx)
                base_r = tgt * deg
                for j in range(deg):
                    key = (base_r + p[j], base_c + j)
                    prev = block_op.get(key)
                    block_op[key] = mus if prev is None else prev + mus
                block_op = {k: v for k, v in block_op.items() if v}
            choices.append(block_op)
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
        out = op_add(out, op_shift(term, mu_slot(G, ridx)))
    return out


def verify_defining_relations(M: InducedModule, seed: int = 0) -> RelationReport:
    """Check the five defining relations as exact sparse-matrix identities.

    The conjugation relation is verified on the group generators, which
    settles it for every element since both sides are multiplicative in
    w, and spot-checked on a seeded random sample of full elements.
    Products with group elements (B2, B3, the right-hand side of B5) are
    re-indexings through the basis permutations, entry for entry the
    sparse products; products of two hyperplane operators (B1, B4, the
    left-hand side of B5) are sparse products.  Failures are reported,
    never raised.
    """
    G = M.group
    table = transv_table(G)
    labels = [h.label for h in hyperplanes(G)]
    nh = len(labels)
    results = {name: True for name in ("B1", "B2", "B3", "B4", "B5")}
    first = None

    def fail(name, message):
        nonlocal first
        results[name] = False
        if first is None:
            first = f"{name}: {message}"

    for hid in range(nh):
        e = M.eps[hid]
        if op_compose(e, e) != op_shift(e, 0):
            fail("B1", f"eps({labels[hid]})^2 != delta*eps({labels[hid]})")
            break

    rng = random.Random(seed)
    pool = G.elements
    elems = list(G.generators) + rng.sample(pool, min(10, len(pool)))
    for w in elems:
        rows = M.perm_of(w)
        cols = perm_inverse(M.perm_of(G.inv(w)))
        act = G.hyperplane_action(w)
        done = False
        for hid in range(nh):
            if op_permute(M.eps[hid], rows, cols) != M.eps[act[hid]]:
                fail(
                    "B2",
                    f"w*eps({labels[hid]})*w^-1 != eps(w H) for w={G.element(w)!r}",
                )
                done = True
                break
        if done:
            break

    for ridx, s in enumerate(G.reflections):
        hid = G.reflection_hyperplane(ridx)
        e = M.eps[hid]
        if op_permute(e, M.perm_of(s)) != e:
            fail("B3", f"r*eps({labels[hid]}) != eps({labels[hid]}) for r#{ridx}")
            break

    done = False
    for h1 in range(nh):
        for h2 in range(h1 + 1, nh):
            if not table.transverse(h1, h2):
                continue
            e1, e2 = M.eps[h1], M.eps[h2]
            if op_compose(e1, e2) != op_compose(e2, e1):
                fail("B4", f"eps({labels[h1]}) and eps({labels[h2]}) do not commute")
                done = True
                break
        if done:
            break

    done = False
    for h1 in range(nh):
        for h2 in range(nh):
            if h1 == h2 or table.transverse(h1, h2):
                continue
            if op_compose(M.eps[h1], M.eps[h2]) != b5_rhs(M, h1, h2):
                fail(
                    "B5",
                    f"eps({labels[h1]})*eps({labels[h2]}) != "
                    f"sum over mapping reflections",
                )
                done = True
                break
        if done:
            break

    return RelationReport(results, first)


# ---------------------------------------------------------------------------
# census


def semisimplicity_census(G: Group, cfg: FieldConfig = GENERIC):
    """(sum of squared simple-module dimensions, algebra dimension).

    Each admissible orbit contributes orbit_size^2 * quotient_size: the
    simple modules over that orbit are indexed by the irreducibles of
    the quotient Stab(B)/K_B, and induction scales dimensions by the
    orbit size.  The two numbers must agree; a mismatch is an internal
    error, not a report entry.
    """
    recs = classify_orbits(G, cfg)
    ss = sum(
        r.orbit.orbit_size**2 * r.quotient_size for r in recs if r.quotient_size
    )
    dim = dim_from_rows(G.order, [r.as_row() for r in recs])
    if ss != dim:
        raise InternalInconsistency(
            f"census mismatch for {G.name}: sum of squares {ss} != dimension {dim}"
        )
    return ss, dim
