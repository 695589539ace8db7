"""The induced module as it was built before the coset table, kept as a
test reference: a Stab(B) representation is a callable giving each
element's permutation of the cosets of K_B, memoized per element, and the
module carries a group element g from block s to block t by transport,
the element w_t^-1 g w_s of Stab(B), with w_t the orbit walk's witnesses.
InducedModule's coset table and its eps operators are tested against it.
Its scalars restate the ring's layout, delta in slot 0 and the parameter
of reflection class c in slot 1 + c, rather than read the module's ring.

reference_stab_action is the check of the Stab(B) action that induce ran
before it read the action off V0's kernel: the identity and a seeded
sample of Stab(B), compared on whole basis permutations.
"""

import random

from bct.admissibility import collection
from bct.errors import InternalInconsistency
from bct.exact_arith import LaurentScalar
from bct.reflection_groups import orbit
from bct.transversality import transv_table


def _stab_sample(stab):
    """The elements of Stab(B) its action is checked on: the generators
    stab keeps (its Schreier generators) plus four seeded members."""
    pool = sorted(stab.elements)
    return list(stab.generators) + random.Random(2).sample(pool, min(4, len(pool)))


def reference_stab_action(module):
    """Stab(B) acts as a representation: the identity fixes every basis
    vector, perm_of is multiplicative on _stab_sample, and the generators
    of V0's kernel fix block 0."""
    G = module.group
    if module.perm_of(G.identity) != tuple(range(module.dim)):
        raise InternalInconsistency("the identity does not act trivially")
    sample = _stab_sample(module.v0.stab)
    for a in sample:
        pa = module.perm_of(a)
        for b in sample:
            pb = module.perm_of(b)
            if module.perm_of(G.mul(a, b)) != tuple(map(pa.__getitem__, pb)):
                raise InternalInconsistency(
                    f"Stab(B) representation is not multiplicative on {a}, {b}"
                )
    block0 = tuple(range(module.degree))
    for k in module.v0.kernel.generators:
        if module.perm_of(k)[: module.degree] != block0:
            raise InternalInconsistency(
                f"B={module.B}: the kernel of V0 does not fix block 0"
            )


class RefStabRep:
    """Permutation representation of Stab(B) from a callable, memoized."""

    def __init__(self, G, stab, degree, perm_fn):
        self.group = G
        self.stab = stab
        self.degree = degree
        self._perm_fn = perm_fn
        self._memo = {}

    def perm(self, h):
        out = self._memo.get(h)
        if out is None:
            if h not in self.stab.elements:
                raise ValueError(f"element {h} is not in Stab(B)")
            out = self._memo[h] = tuple(self._perm_fn(h))
        return out


def ref_trivial_rep(G, B):
    return RefStabRep(G, G.stabilizer_of(B), 1, lambda h: (0,))


def ref_quotient_regular_rep(G, B):
    """Stab(B) on the cosets of K_B, each named by its smallest member."""
    stab = G.stabilizer_of(B)
    kb = collection(G, B).kb
    reps = []
    coset_index = {}
    for g in sorted(stab.elements):
        if g not in coset_index:
            # K_B is normal in Stab(B), so the coset g K_B is K_B g
            coset_index.update(dict.fromkeys(G.right_coset(kb.elements, g), len(reps)))
            reps.append(g)
    return RefStabRep(
        G, stab, len(reps), lambda h: tuple(coset_index[G.mul(h, r)] for r in reps)
    )


class RefModule:
    """Blocks of V0-coordinates, one per collection in the orbit of B."""

    def __init__(self, G, B, v0):
        self.group = G
        self.B = tuple(sorted(B))
        self.v0 = v0
        self.blocks, self.coset_reps = orbit(G, self.B)
        self.degree = v0.degree
        self.dim = len(self.blocks) * v0.degree
        self._block_index = {b: t for t, b in enumerate(self.blocks)}
        self._rep_inverses = [G.inv(w) for w in self.coset_reps]
        self.eps = {hid: self._eps_operator(hid) for hid in range(len(G.hyperplanes))}

    def transport(self, tgt, g, src):
        """The element w_tgt^-1 g w_src of Stab(B)."""
        G = self.group
        return G.mul(G.mul(self._rep_inverses[tgt], g), self.coset_reps[src])

    def _target(self, g, bcol):
        act = self.group.hyperplane_action(g)
        return self._block_index[tuple(sorted(act[h] for h in bcol))]

    def perm_of(self, g):
        deg = self.degree
        out = [None] * self.dim
        for src, bcol in enumerate(self.blocks):
            tgt = self._target(g, bcol)
            p = self.v0.perm(self.transport(tgt, g, src))
            for j in range(deg):
                out[src * deg + j] = tgt * deg + p[j]
        return tuple(out)

    def _eps_operator(self, hid):
        G = self.group
        table = transv_table(G)
        deg = self.degree
        nvars = 1 + len(G.reflection_classes)
        delta = LaurentScalar.variable(nvars, 0)
        out = {}
        for src, bcol in enumerate(self.blocks):
            base_c = src * deg
            if hid in bcol:
                for j in range(deg):
                    out[(base_c + j, base_c + j)] = delta
                continue
            nontrans = [h for h in bcol if not table.transverse(hid, h)]
            if not nontrans:
                continue
            # every choice of member gives the same block; the first is used
            block_op = {}
            for ridx in table.mapped_by(nontrans[0], hid):
                s = G.reflections[ridx]
                tgt = self._target(s, bcol)
                p = self.v0.perm(self.transport(tgt, s, src))
                mus = LaurentScalar.variable(nvars, 1 + G.reflection_class_of[ridx])
                for j in range(deg):
                    key = (tgt * deg + p[j], base_c + j)
                    prev = block_op.get(key)
                    block_op[key] = mus if prev is None else prev + mus
                block_op = {k: v for k, v in block_op.items() if v}
            out.update(block_op)
        return out
