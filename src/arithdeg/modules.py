"""Submodules of free modules: Groebner bases, syzygies, resolutions, Ext.

A free-module term is a pair (component, exponent tuple), and a module
element is a Vec: a map from such terms to coefficients.  Vec is the one
format of the layer: presentation relations, resolution differentials and
Ext relations are all lists of Vec columns.  Module orders compare terms;
the default is position-over-term with degrevlex underneath, and syzygy
steps use the induced Schreyer order.

Module Groebner bases, normal forms and Schreyer syzygies run on the engine
in ``groebner``, with the component-aware term operations defined here:
module bases take its sugar loop, S-pairs form only within a component,
and Gebauer-Moeller pair elimination runs with no product criterion,
which is not valid for modules.

A free resolution checks that its maps compose to zero on ints, each
differential brought to ints once per check.  Ext^j takes one module
Groebner basis, for the kernel basis K of the transposed d_(j+1); its
relations are the quotients of dividing the transposed d_j by K, plus K's
Schreyer syzygies, and at the top of a complete resolution Ext^L is
coker(d_L^T) itself.
"""

from math import lcm
from operator import itemgetter

from .errors import (AlgebraError, HomogeneityError, InternalConsistencyError,
                     RingMismatchError)
from .groebner import (DEFAULT_MAX_BASIS, DEFAULT_MAX_DEGREE, _caps, _divide,
                       _divide_pair, _groebner, _reduce, _s_element, _Slots,
                       _Terms)
from .orders import DegRevLex, TermOrder
from .rings import (Polynomial, deg_add, minimal_monomials, mono_div,
                    mono_lcm, mono_mul, terms_key)


class ModuleOrder(TermOrder):
    """An order on free-module terms (component, monomial); its key is
    affine in the monomial, with an offset per component."""


class PositionOverTerm(ModuleOrder):
    """Component first (earlier generators are larger), then the term order."""

    def __init__(self, inner=None):
        self.inner = inner or DegRevLex()

    def key(self, term):
        c, m = term
        return (-c, self.inner.key(m))

    def signature(self):
        return ("pot", self.inner.signature())


class SchreyerOrder(ModuleOrder):
    """Order on syzygy coordinates induced by the leads of a Groebner basis:
    u*E_i beats v*E_j when u*lead(g_i) beats v*lead(g_j), ties to smaller i."""

    def __init__(self, parent, leads):
        self.parent = parent
        self.leads = tuple(leads)
        self._hash = hash(self.signature())

    def key(self, term):
        i, m = term
        lc, lmono = self.leads[i]
        return (self.parent.key((lc, mono_mul(m, lmono))), -i)

    def signature(self):
        return ("schreyer", self.parent.signature(), self.leads)

    def __hash__(self):  # hashes the leads once, not per packer lookup
        return self._hash


class Vec:
    """Element of a free module: map (component, monomial) -> coefficient."""

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring, rank, terms, _clean=True):
        self.ring = ring
        self.rank = rank
        if _clean:
            clean = {}
            for t, c in terms.items():
                c = ring.field.coerce(c)
                if c:
                    clean[t] = c
            self.terms = clean
        else:
            self.terms = terms

    @classmethod
    def from_polys(cls, ring, polys):
        terms = {}
        for c, p in enumerate(polys):
            for m, v in p.terms.items():
                terms[(c, m)] = v
        return cls(ring, len(polys), terms, _clean=False)

    def to_polys(self):
        polys = [dict() for _ in range(self.rank)]
        for (c, m), v in self.terms.items():
            polys[c][m] = v
        return tuple(Polynomial(self.ring, d, _clean=False) for d in polys)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for t, c in other.terms.items():
            s = terms.get(t, 0) + c
            if s:
                terms[t] = s
            elif t in terms:
                del terms[t]
        return Vec(self.ring, self.rank, terms, _clean=False)

    def __sub__(self, other):
        terms = dict(self.terms)
        for t, c in other.terms.items():
            s = terms.get(t, 0) - c
            if s:
                terms[t] = s
            elif t in terms:
                del terms[t]
        return Vec(self.ring, self.rank, terms, _clean=False)

    def scale(self, coeff):
        return Vec(self.ring, self.rank,
                   {t: v * coeff for t, v in self.terms.items()}, _clean=False)

    def leading_term(self, morder):
        if not self.terms:
            raise AlgebraError("lead of zero vector")
        t = max(self.terms, key=morder.key)
        return t, self.terms[t]

    def monic(self, morder):
        _, c = self.leading_term(morder)
        if c == self.ring.field.one:
            return self
        return self.scale(self.ring.field.one / c)

    def degree(self):
        if not self.terms:
            return -1
        return max(self.ring.degree(m) for _, m in self.terms)

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.rank == other.rank
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return "<%s>" % ", ".join(repr(p) for p in self.to_polys())


def vec_sort_key(v, morder):
    return (morder.key(v.leading_term(morder)[0]), terms_key(v.terms))


def _vec_div(t, s):
    return mono_div(t[1], s[1]) if t[0] == s[0] else None


def _vec_mul(q, t):
    return (t[0], mono_mul(q, t[1]))


def _vec_lcm(s, t):
    return (s[0], mono_lcm(s[1], t[1])) if s[0] == t[0] else None


_VEC = _Terms(_vec_div, _vec_mul, _vec_lcm, itemgetter(0),
              lambda v, terms: Vec(v.ring, v.rank, terms, _clean=False),
              "module Groebner")


def module_normal_form(v, basis, morder, leads=None, forms=None):
    """Division remainder of a vector by a list of vectors; leads, when
    given, lists the (lead term, coefficient) pair of each of them, and
    forms, when given, their _Slots (groebner._divide)."""
    if not basis:
        return v
    leads = leads or [g.leading_term(morder) for g in basis]
    return Vec(v.ring, v.rank, _divide(v.terms, basis, leads, morder, _VEC,
                                       None, forms), _clean=False)


def s_vector(v, w, morder):
    """The S-vector of v and w, whose leads lie in one component, on
    Fractions: the oracle for the Buchberger criterion on a returned
    basis, like groebner.s_polynomial, not the engine's route."""
    return Vec(v.ring, v.rank, _s_element(v, w, morder, _VEC), _clean=False)


def module_buchberger(vecs, morder, max_basis=DEFAULT_MAX_BASIS,
                      max_degree=DEFAULT_MAX_DEGREE):
    """Reduced Groebner basis of the submodule generated by vecs."""
    return _groebner([v for v in vecs if v], morder, _VEC, max_basis,
                     max_degree)


def schreyer_syzygies(G, morder, leads=None):
    """Syzygies of a Groebner basis G via the Schreyer construction, with
    their Schreyer order and their leads.

    Every same-component S-pair contributes the syzygy
    m_i E_i - m_j E_j - sum q_k E_k where the S-vector divides out as
    sum q_k g_k; the division takes the engine's pair route, so the
    S-vector is never built.  Pairs are taken within each component's
    group of indices, and one forms slot per element is kept across them.
    The syzygy's lead m_i E_i is known from the pair, so the minimality
    test of _reduce recomputes no lead, and _reduce hands the kept leads
    back.  leads, when given, are G's (lead term, coefficient) pairs under
    morder, as the previous level returned them, so a resolution computes
    no lead under a Schreyer order.  The result generates the full syzygy
    module and is a Groebner basis for the returned Schreyer order.
    """
    ring = G[0].ring if G else None
    leads = leads or [g.leading_term(morder) for g in G]
    forms = _Slots([None] * len(G))
    sorder = SchreyerOrder(morder, [lt for lt, _ in leads])
    groups = {}
    for k, ((c, _), _) in enumerate(leads):
        groups.setdefault(c, []).append(k)
    syz, syz_leads = [], []
    for group in groups.values():
        for a, i in enumerate(group):
            for j in group[a + 1:]:
                # the S-vector divides out as sum q_k g_k; its two defining
                # terms minus those quotients are the syzygy
                quotients = {}
                if _divide_pair(i, j, G, leads, morder, _VEC, quotients,
                                forms):
                    raise InternalConsistencyError(
                        "S-vector of a Groebner basis did not reduce to zero")
                lcm = _vec_lcm(leads[i][0], leads[j][0])
                qi, qj = _vec_div(lcm, leads[i][0]), _vec_div(lcm, leads[j][0])
                one = ring.field.one
                cof = {(i, qi): one / leads[i][1],
                       (j, qj): -(one / leads[j][1])}
                for key, val in quotients.items():
                    cof[key] = cof.get(key, 0) - val
                vec = Vec(ring, len(G), cof)
                syz.append(vec)
                # qi*E_i leads: it ties qj*E_j on lcm and wins on i < j,
                # and each q_k*E_k lies below the lcm
                syz_leads.append(((i, qi), vec.terms[(i, qi)]))
    # minimalize w.r.t. the Schreyer order (still a basis of the kernel)
    syz, syz_leads = _reduce(syz, syz_leads, sorder, _VEC)
    return syz, sorder, syz_leads


def syzygies_of(columns, ring, rank,
                max_basis=DEFAULT_MAX_BASIS, max_degree=DEFAULT_MAX_DEGREE):
    """Generators of the syzygy module of arbitrary Vec columns in S^rank.

    Augmentation route: each column f_i becomes f_i + E_{rank+i} in
    S^(rank+a); position-over-term makes the leading block dominant, so
    basis elements living entirely in the trailing block are exactly the
    syzygies.
    """
    a = len(columns)
    if a == 0:
        return []
    aug = []
    for i, col in enumerate(columns):
        terms = dict(col.terms)
        terms[(rank + i, ring.zero_mono())] = ring.field.one
        aug.append(Vec(ring, rank + a, terms))
    G = module_buchberger(aug, PositionOverTerm(), max_basis=max_basis,
                          max_degree=max_degree)
    out = []
    for g in G:
        if all(c >= rank for (c, m) in g.terms):
            shifted = {(c - rank, m): v for (c, m), v in g.terms.items()}
            out.append(Vec(ring, a, shifted, _clean=False))
    return out


# ---------------------------------------------------------------------------
# presentations, complexes, resolutions, Ext

class ModulePresentation:
    """Cokernel presentation: F/im(columns) with grading shifts on F.

    columns is a tuple of relation columns, each a Vec of rank `rank`.
    shifts[c] is the degree of the c-th free generator: an integer for
    graded rings, an (i, j) pair for bigraded ones.  max_basis and
    max_degree cap its module Groebner bases and those of its Ext modules.
    """

    __slots__ = ("ring", "rank", "columns", "shifts", "max_basis", "max_degree",
                 "_cache", "_ideal")

    def __init__(self, ring, rank, columns, shifts=None,
                 max_basis=DEFAULT_MAX_BASIS, max_degree=DEFAULT_MAX_DEGREE):
        self.ring = ring
        self.rank = int(rank)
        cols = []
        for col in columns:
            if col.rank != self.rank:
                raise AlgebraError("column rank %d != rank %d" % (col.rank, self.rank))
            if col.ring != ring:
                raise RingMismatchError("column over wrong ring")
            if col:
                cols.append(col)
        if shifts is None:
            zero = (0, 0) if ring.is_bigraded else 0
            shifts = tuple(zero for _ in range(self.rank))
        self.shifts = tuple(shifts)
        if len(self.shifts) != self.rank:
            raise AlgebraError("one shift per free generator required")
        morder = PositionOverTerm()
        cols.sort(key=lambda col: vec_sort_key(col, morder))
        self.columns = tuple(cols)
        self.max_basis = max_basis
        self.max_degree = max_degree
        self._cache = {}
        self._ideal = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ideal(cls, I):
        """The cyclic module S/I.  Its relations are I.gens; its Groebner
        basis is I.groebner_basis(), and I's caps govern it and its Ext
        modules."""
        pres = cls(I.ring, 1, [Vec.from_polys(I.ring, (g,)) for g in I.gens],
                   **_caps(I))
        pres._ideal = I
        return pres

    # -- basic structure ----------------------------------------------------

    def _cached(self, key, build):
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build()
        return got

    def gb(self):
        """Reduced Groebner basis of the relations, position over term."""
        def build():
            if self._ideal is not None:
                return tuple(Vec.from_polys(self.ring, (g,))
                             for g in self._ideal.groebner_basis())
            return tuple(module_buchberger(self.columns, PositionOverTerm(),
                                           self.max_basis, self.max_degree))
        return self._cached("gb", build)

    def column_degrees(self):
        """Degree of each relation column; HomogeneityError if one has none."""
        return [_vec_degree(self.ring, self.shifts, v) for v in self.columns]

    def initial_leads(self):
        """Per-component minimal lead monomials of the relation submodule."""
        def build():
            morder = PositionOverTerm()
            comps = [[] for _ in range(self.rank)]
            for g in self.gb():
                (c, m), _ = g.leading_term(morder)
                comps[c].append(m)
            return tuple(minimal_monomials(mons) for mons in comps)
        return self._cached("leads", build)

    def __repr__(self):
        return "ModulePresentation(rank=%d, %d relations over %r)" % (
            self.rank, len(self.columns), self.ring)


class ChainComplex:
    """Free complex d_1, d_2, ...; checked so consecutive maps compose to zero.
    differentials[k] lists the columns of d_(k+1) as Vecs: for k = 0 in
    S^base_rank, otherwise in S^len(differentials[k-1]).  An incomplete
    resolution's frontier is its last basis, its module order and its
    leads under that order (None before the first Schreyer step)."""

    def __init__(self, ring, base_rank, base_shifts, differentials, level_shifts,
                 complete, frontier=None):
        self.ring = ring
        self.base_rank = base_rank
        self.base_shifts = tuple(base_shifts)
        self.differentials = list(differentials)
        self.level_shifts = [tuple(s) for s in level_shifts]
        self.complete = complete
        self.frontier = frontier
        self._verify()

    @property
    def length(self):
        return len(self.differentials)

    def extend(self, max_length):
        """Add Schreyer syzygy levels until there are max_length maps or the
        syzygies vanish (complete); checks only the new compositions."""
        if self.complete or self.length >= max_length:
            return self
        G, order, leads = self.frontier
        diffs, levels = self.differentials, self.level_shifts
        checked = max(len(diffs) - 1, 0)
        while len(diffs) < max_length:
            if diffs:
                G, order, leads = schreyer_syzygies(G, order, leads)
            if not G:
                self.complete, self.frontier = True, None
                break
            shifts = levels[-1] if levels else self.base_shifts
            levels.append(tuple(_vec_degree(self.ring, shifts, g) for g in G))
            diffs.append(list(G))
            self.frontier = (G, order, leads)
        self._verify(checked)
        return self

    def _verify(self, start=0):
        """Check that d_(k+1) d_(k+2) = 0 for every k >= start, on ints.

        Each differential is brought to ints once per call (_int_columns):
        column t of d_(k+1) times D_t, the lcm of its denominators, and
        each column of d_(k+2) times the lcm of its own.  A column of
        d_(k+2) then weighs column t by P/D_t on top of its ints, P the
        lcm of the D_t it uses, so its image is summed as a whole multiple
        of the true one.  Over Z/p the ints are residues, D_t = 1, and the
        sums are tested mod p."""
        p = self.ring.field.characteristic
        ints = (_int_columns(d, p) for d in self.differentials[start:])
        d1 = next(ints, None)
        for d2 in ints:
            for col, _ in d2:
                P = lcm(*[d1[t][1] for t, _ in col])
                acc = {}
                for (t, q), c in col.items():
                    terms, D = d1[t]
                    c *= P // D
                    for (comp, m), v in terms.items():
                        key = (comp, mono_mul(q, m))
                        acc[key] = acc.get(key, 0) + c * v
                if any(v % p for v in acc.values()) if p else any(acc.values()):
                    raise InternalConsistencyError(
                        "chain complex differentials do not compose to zero")
            d1 = d2


def _int_columns(columns, p):
    """Each Vec column as (int terms, D) with D*column = the int terms:
    over Q, D is the lcm of the column's denominators; over Z/p the ints
    are the residues and D = 1."""
    if p:
        return [({t: c.value for t, c in col.terms.items()}, 1)
                for col in columns]
    out = []
    for col in columns:
        D = lcm(*[c.denominator for c in col.terms.values()])
        out.append(({t: c.numerator * (D // c.denominator)
                     for t, c in col.terms.items()}, D))
    return out


def free_resolution(pres, max_length):
    """Free resolution of coker(pres) by iterated Schreyer syzygies.

    The first differential is pres.gb(), the Groebner basis of the relation
    columns (same cokernel); each further step takes Schreyer syzygies,
    which generate the kernel exactly, so the complex is exact beyond
    degree zero.  Stops early once the syzygies vanish (complete=True).
    """
    if max_length < 1:
        raise AlgebraError("resolution length must be at least 1")
    start = ChainComplex(pres.ring, pres.rank, pres.shifts, [], [], False,
                         frontier=(pres.gb(), PositionOverTerm(), None))
    return start.extend(max_length)


def _vec_degree(ring, shifts, v):
    """Common degree of a homogeneous vector whose c-th free generator has
    degree shifts[c]; None for the zero vector."""
    degfun = ring.bidegree if ring.is_bigraded else ring.degree
    degs = {deg_add(shifts[c], degfun(m)) for c, m in v.terms}
    if len(degs) > 1:
        raise HomogeneityError("vector %r is not homogeneous" % (v,))
    return degs.pop() if degs else None


def _transpose(ring, columns, rank):
    """Columns of the transposed matrix of Vec columns in S^rank: rank many
    Vecs in S^len(columns)."""
    out = [{} for _ in range(rank)]
    for t, col in enumerate(columns):
        for (c, m), v in col.terms.items():
            out[c][(t, m)] = v
    return [Vec(ring, len(columns), terms, _clean=False) for terms in out]


def _negate_shift(s):
    if isinstance(s, tuple):
        return (-s[0], -s[1])
    return -s


def resolution_for(pres, length):
    """Cached free resolution of at least the given length.  A longer
    request than an incomplete cached one extends it from its last level,
    so each level is built once (adeg_graded at i = 2, 1, 0 on
    S/(x^2, xy, xz) in Q[x,y,z] builds levels 2, 3 and then finds the
    fourth empty)."""
    res = pres._cache.get("resolution")
    if res is None:
        res = pres._cache["resolution"] = free_resolution(pres, length)
    return res.extend(length)


def ext_presentation(pres, j):
    """Presentation of Ext^j(coker(pres), S) with dual grading shifts.

    Cohomology of the dualized resolution at F_j^*: its generators K span
    the kernel of phi = d_(j+1)^T, and its relations are all vectors that
    K carries into the image of psi = d_j^T.  At the top of a complete
    resolution (j = L) K is the unit vectors, so Ext^L = coker(d_L^T) and
    psi's columns are the relations.  Below the top K comes from
    syzygies_of: the trailing block of a reduced position-over-term basis,
    so a reduced Groebner basis of ker phi.  Each psi column lies in
    ker phi and divides by K with remainder zero; its quotients are one
    relation, and K's Schreyer syzygies are the rest.  A nonzero remainder
    means d_(j+1)^T d_j^T != 0 and raises InternalConsistencyError, as
    schreyer_syzygies does when K is not a basis.
    """
    if j < 0 or j > pres.ring.nvars:
        raise AlgebraError("Ext index %d out of range" % j)
    ring = pres.ring
    res = resolution_for(pres, j + 1)
    ranks = [pres.rank] + [len(d) for d in res.differentials]
    all_shifts = [pres.shifts] + res.level_shifts
    if j > res.length or ranks[j] == 0:
        return ModulePresentation(ring, 0, [], **_caps(pres))
    dual_shifts_j = tuple(_negate_shift(s) for s in all_shifts[j])
    # the image of the transposed d_j inside S^{r_j}
    psi_cols = _transpose(ring, res.differentials[j - 1], ranks[j - 1]) if j else []
    if j == res.length:
        return ModulePresentation(ring, ranks[j], psi_cols, shifts=dual_shifts_j,
                                  **_caps(pres))
    # the kernel of the transposed d_{j+1}: r_j columns in S^{r_{j+1}}
    phi_cols = _transpose(ring, res.differentials[j], ranks[j])
    K = syzygies_of(phi_cols, ring, ranks[j + 1], **_caps(pres))
    if not K:
        return ModulePresentation(ring, 0, [], **_caps(pres))
    morder = PositionOverTerm()
    leads = [k.leading_term(morder) for k in K]
    forms = _Slots([None] * len(K))
    rel_cols = []
    for col in psi_cols:
        quotients = {}
        if _divide(col.terms, K, leads, morder, _VEC, quotients, forms):
            raise InternalConsistencyError(
                "transposed differentials do not compose to zero")
        rel_cols.append(Vec(ring, len(K), quotients))
    rel_cols += schreyer_syzygies(K, morder, leads)[0]
    gen_shifts = tuple(_vec_degree(ring, dual_shifts_j, k) for k in K)
    return ModulePresentation(ring, len(K), rel_cols, shifts=gen_shifts,
                              **_caps(pres))
