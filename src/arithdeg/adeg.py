"""Arithmetic degrees (graded and local flavors) and the harness
checking the main inequality adeg_r(gr_M(gr_I A)) >= sum_k (ladeg_r)_k plus
its corollaries.

Three independent pipelines feed the same numbers:
  * the Ext route: adeg_i(M) = e_i(Ext^(n-i)(M, S)), provenance "ext";
  * the standard-pair count for monomial ideals, provenance "standard-pairs";
  * the tangent cone's multiplicity for inhomogeneous primes, "samuel".
Their agreement on the monomial corpus is the central oracle equivalence.
``adeg_report_ext`` first tries a Cohen-Macaulay certificate, whose table
is the Ext route's whenever it holds; its provenance is "ext" too.

``verify`` builds one such table per pair.  gr_m of a standard bigraded
ring is that ring, so GG(A) = gr_m(gr_I A) *is* gr_I A's presentation
k[x; y]/L whenever L is bigraded: the GG construction hands out gr_I's own
ideal handle, and x-block initial forms run only otherwise.  L is the
ideal of lowest y-forms of J + (y_j - f_j), built as (x) + J*(y) for
I = m, J* the tangent cone's ideal.  L is always homogeneous in the
y-degree, so an L that is not bigraded is not graded by total degree
either, and corollary 1's gr_I side is then out of scope.  So corollary 1 reads the theorem's table, or the
pair is unsupported.

``ladeg`` of monomial J sums over associated primes p generated by
variables, and builds each GG(S/p) over S/p = k[x_k : x_k not in p], with
the ideal 0 and I's image (x_k = 0 for x_k in p).  That is exact: in S the
ideal L of gr_I(S/p) holds p and y_j for each generator f_j in p, so both
presentations have one bigraded Hilbert function, and ee_i reads only that.
"""

import random

from .errors import (InternalConsistencyError, TheoremViolationError,
                     UnsupportedInputError)
from .constructions import gg_presentation, tangent_cone
from .groebner import IdealHandle, _caps
from .hilbert import (artinian_length, as_presentation,
                      classical_multiplicity, dimension, ee_vector,
                      h_vector)
from .modules import ext_presentation
from .monomials import decompose, local_length_by_pairs, adeg_monomial
from .numerical import MultiplicityVector
from .rings import Polynomial, RingDescriptor

CM_DRAWS = 3

# ---------------------------------------------------------------------------
# coordinate-ring images

def _coordinate_image(ring, polys, dead):
    """Set x_k = 0 for k in dead and drop those variables: (R, images) with
    R = k[x_k : k not in dead], standard graded, and the nonzero images of
    polys over R.  R is None when no variable survives."""
    alive = [k for k in range(ring.nvars) if k not in dead]
    if not alive:
        return None, []
    small = RingDescriptor(tuple(ring.names[k] for k in alive),
                           field=ring.field)
    images = [{tuple(m[k] for k in alive): c for m, c in f.terms.items()
               if not any(m[k] for k in dead)} for f in polys]
    return small, [Polynomial(small, t) for t in images if t]


def prune_coordinate_variables(I):
    """Remove variables that appear as pure generators of I, over a ring
    graded totally.

    A generator c*x_i lets us mod out x_i: every other generator loses its
    x_i-terms and the variable leaves the ring.  Killing x_i can turn
    another generator into a pure one, so the dead variables grow to a
    fixed point before one ``_coordinate_image`` over the survivors.  The
    quotient ring, its associated primes, dimensions, and multiplicities
    are unchanged, while Ext computations shrink dramatically (important
    when I = m, where the whole x-block dies in GG).  A bigraded I comes
    back over the totally graded ring of its surviving variables even when
    nothing is pruned; a graded I with nothing to prune comes back as it
    is.  The result takes I's caps.
    """
    ring = I.ring
    dead = set()
    while True:
        found = set()
        for g in I.gens:
            live = [m for m in g.terms if not any(m[k] for k in dead)]
            if len(live) == 1 and sum(live[0]) == 1:
                found.add(live[0].index(1))
        if not found:
            break
        dead |= found
    if not dead and not ring.is_bigraded:
        return I
    small, gens = _coordinate_image(ring, I.gens, dead)
    if small is None:
        # everything died: the quotient is the base field k = k[v]/(v)
        small = RingDescriptor((ring.names[0],), field=ring.field)
        gens = [small.gen(0)]
    return IdealHandle(small, gens, **_caps(I))


# ---------------------------------------------------------------------------
# graded arithmetic degrees

def _ext_for_dimension(M, i):
    """Ext^(n-i)(M, S), or None where it is zero: for i < 0, and for
    i > dim M (so for i > n) by the grade bound, since over the
    Cohen-Macaulay ring S, Ext^j(M, S) = 0 for j < codim M = n - dim M.
    No Ext module below the codimension is ever built."""
    pres = as_presentation(M)
    if i < 0 or i > dimension(pres):
        return None
    ext = ext_presentation(pres, pres.ring.nvars - i)
    return ext if ext.rank else None


def adeg_graded(M, i):
    """Graded arithmetic degree by the Ext route:
    e_i of Ext^(n-i)(M, S)."""
    ext = _ext_for_dimension(M, i)
    return 0 if ext is None else classical_multiplicity(ext, i)


def _ext_table(M):
    """adeg_i(M) for i = 0..n, each by the Ext route."""
    pres = as_presentation(M)
    return {i: adeg_graded(pres, i) for i in range(pres.ring.nvars + 1)}


def _linear_draws(ring, d):
    """A fixed sequence of CM_DRAWS draws, each d linear forms with
    coefficients in 1..3 from a generator seeded per draw."""
    for draw in range(CM_DRAWS):
        rng = random.Random(draw)
        yield [Polynomial(ring, {tuple(int(k == j) for k in range(ring.nvars)):
                                 rng.randint(1, 3) for j in range(ring.nvars)})
               for _ in range(d)]


def _cohen_macaulay_table(L):
    """The adeg table of M = S/L when a linear system of parameters proves
    M Cohen-Macaulay, else None.

    For d = dim M linear forms z with S/(L + z) Artinian, z is a system of
    parameters of M and (z) is a reduction of M's irrelevant ideal, so
    λ(M/zM) >= e(M), with equality exactly when M is Cohen-Macaulay
    (Serre; Bruns and Herzog, Cohen-Macaulay Rings, 4.7.10).  A
    Cohen-Macaulay M is unmixed: Ext^j(M, S) vanishes but at j = n - d, so
    adeg_d(M) = e(M) and every other adeg_i(M) is 0, whichever z proved
    it.  Only S/L with L homogeneous over a standard graded ring qualifies.
    None, with no draw, when the h-vector has a negative entry; None when
    λ > e or no draw gives an Artinian quotient.
    """
    ring = L.ring
    if (not isinstance(L, IdealHandle) or ring.is_bigraded
            or not L.is_homogeneous()):
        return None
    d = dimension(L)
    if d < 0 or any(c < 0 for c in h_vector(L).values()):
        return None
    e = classical_multiplicity(L, d)
    table = {i: 0 for i in range(ring.nvars + 1)}
    table[d] = e
    if d == 0:
        return table
    for z in _linear_draws(ring, d):
        K = IdealHandle(ring, L.gens + tuple(z), **_caps(L))
        if dimension(K) != 0:
            continue
        length = artinian_length(K)
        if length < e:
            raise InternalConsistencyError(
                "λ(M/zM) = %d below e(M) = %d for a system of parameters"
                % (length, e))
        return table if length == e else None
    return None


def adeg_report_ext(M):
    """Arithmetic degrees for every dimension 0..n, as a table i -> int:
    the Cohen-Macaulay certificate's table when it holds, else the Ext
    route's.  No entry is negative and the top one of a nonzero module is
    positive; anything else is a bug."""
    pres = as_presentation(M)
    table = _cohen_macaulay_table(M)
    if table is None:
        table = _ext_table(pres)
    for i, v in table.items():
        if v < 0:
            raise InternalConsistencyError(
                "negative arithmetic degree at i=%d" % i)
    d = dimension(pres)
    if d >= 0 and table.get(d, 0) <= 0:
        raise InternalConsistencyError("vanishing top arithmetic degree")
    return table


def adeg_report_monomial(I):
    """Standard-pair route for a monomial ideal (ground truth), as a table
    i -> int."""
    return dict(enumerate(adeg_monomial(I)))


# ---------------------------------------------------------------------------
# GG-based multiplicities.  A GG presentation lives in J's handle cache,
# keyed by the I handle itself: it is dropped with its handles, and a
# handle with other caps never sees it.

def cached_gg(J, I):
    return J._cached(("gg", I), lambda: gg_presentation(J, I))


def gmult(J, I, i):
    """Generalized multiplicity: ee_i of GG(S/J) w.r.t. I."""
    gg = cached_gg(J, I)
    return ee_vector(gg.ideal, i)


def gmult_report(J, I):
    """ee_i of GG(S/J) w.r.t. I for i = 0..dim, as a table i -> vector."""
    gg = cached_gg(J, I)
    d = dimension(gg.ideal)
    return {i: ee_vector(gg.ideal, i) for i in range(max(d, 0) + 1)}


def _prime_pair(J, I, supp):
    """(P, I') whose GG has the bigraded Hilbert function of GG(S/p) w.r.t.
    I, for p = (x_k : k in supp): P = 0 over S/p = k[x_k : k not in supp]
    and I' is I's ``_coordinate_image``, with x_k = 0 for k in supp and
    its zero generators dropped.  P takes J's caps and I' takes I's.  When
    no variable survives (p = m) or I lies in p, (P, I') is (p, I) over S.
    """
    small, image = _coordinate_image(J.ring, I.gens, supp)
    if small is None or not image:
        ring = J.ring
        return (IdealHandle(ring, [ring.gen(k) for k in supp], **_caps(J)), I)
    return (IdealHandle(small, [], **_caps(J)),
            IdealHandle(small, image, **_caps(I)))


def ladeg(J, I, i, meta=None):
    """Local arithmetic degree: sum of local lengths times ee_i(GG(A/p))
    over the i-dimensional associated primes of S/J.

    Monomial J uses the combinatorial oracle for both the primes and the
    local lengths.  Each such p is generated by variables, so GG(S/p) is
    built over S/p = k[x_k : x_k not in p] with I's image (``_prime_pair``):
    L of gr_I(S/p) in S holds p and the y_j of I's generators in p, so
    the two builds share their bigraded Hilbert function, and with it ee_i.
    Non-monomial J needs metadata certifying it prime (the corpus route);
    otherwise the missing associated primes are reported.
    """
    meta = meta or {}
    n = J.ring.nvars
    if J.is_monomial() and not J.is_zero():
        dec = decompose(J)
        total = MultiplicityVector.zero(i)
        for supp in dec.associated_primes:
            if n - len(supp) != i:
                continue
            length = local_length_by_pairs(J, supp)
            vec = gmult(*_prime_pair(J, I, supp), i)
            total = total + vec.scale(length)
        return total
    if J.is_zero() or meta.get("prime"):
        d = dimension(J)
        if i == d:
            return gmult(J, I, i)
        return MultiplicityVector.zero(i)
    raise UnsupportedInputError(
        "ladeg needs the associated primes of S/J: supply monomial input or "
        "corpus metadata marking the ideal prime")


# ---------------------------------------------------------------------------
# verification records and the harness

class VerificationRecord:
    """Everything the corpus runner needs to judge one (J, I) pair."""

    def __init__(self, label, lhs, rhs, cor1_gr, cor1_a, embedded_a,
                 embedded_checked, equidimensional, passed, detail=""):
        self.label = label
        self.lhs = dict(lhs)                  # r -> adeg_r(gr_M(gr_I A))
        self.rhs = dict(rhs)                  # r -> sum_k (ladeg_r)_k
        self.cor1_gr = dict(cor1_gr)          # i -> adeg_i(gr_I A)
        self.cor1_a = dict(cor1_a)            # i -> adeg_i(A)
        self.embedded_a = list(embedded_a)    # dims of embedded primes of A
        self.embedded_checked = embedded_checked
        self.equidimensional = equidimensional
        self.passed = passed
        self.detail = detail

    def as_dict(self):
        return {
            "label": self.label,
            "theorem_lhs": {str(k): v for k, v in sorted(self.lhs.items())},
            "theorem_rhs": {str(k): v for k, v in sorted(self.rhs.items())},
            "corollary1_gr": {str(k): v for k, v in sorted(self.cor1_gr.items())},
            "corollary1_a": {str(k): v for k, v in sorted(self.cor1_a.items())},
            "embedded_dims_a": self.embedded_a,
            "embedded_checked": self.embedded_checked,
            "equidimensional": self.equidimensional,
            "passed": self.passed,
            "detail": self.detail,
        }

    def __repr__(self):
        return "VerificationRecord(%s, passed=%s)" % (self.label, self.passed)


def _adeg_of_ring_quotient(J, meta):
    """adeg_i(S/J) by the appropriate pipeline, as a plain table i -> int."""
    meta = meta or {}
    ring = J.ring
    if J.is_monomial():
        return adeg_report_monomial(J), "standard-pairs"
    if J.is_homogeneous():
        return adeg_report_ext(J), "ext"
    if meta.get("prime"):
        # a domain, of local length one: its Samuel multiplicity is its
        # tangent cone's, e(m, A) = e(gr_m A) (Bruns and Herzog, ch. 4)
        tc = tangent_cone(J)
        d = dimension(tc)
        e = classical_multiplicity(tc, d)
        table = {i: 0 for i in range(ring.nvars + 1)}
        table[d] = e
        return table, "samuel"
    raise UnsupportedInputError(
        "adeg of an inhomogeneous non-prime quotient needs decomposition data")


def _adeg_of_graded_ideal(I):
    """adeg table (``adeg_report_ext``) of a quotient by an ideal with
    bihomogeneous generators, read totally graded, after pruning dead
    coordinate variables."""
    return adeg_report_ext(prune_coordinate_variables(I))


def verify(J, I, meta=None, label=None):
    """Check the main inequality and both corollaries for one pair.

    The theorem's LHS adeg_r(GG(A)) comes from ``adeg_report_ext`` on
    GG's ideal: the Cohen-Macaulay certificate, else the Ext route.
    Corollary 1's adeg_i(gr_I A) is the same table when GG is gr_I A
    itself, that is when gr_I's ideal is bigraded.  Otherwise gr_I A is not
    graded by total degree, and verify raises UnsupportedInputError right
    after the GG build, before either side of the theorem is computed.

    Raises TheoremViolationError on any failed inequality: the statements
    are proved, so a violation is an implementation bug and the record
    rides along for the reproducer.
    """
    meta = meta or {}
    label = label or "verify"
    ring = J.ring
    gg = cached_gg(J, I)
    # corollary 1 reads the theorem's table: GG is gr_I when gr_I is
    # bigraded, and gr_I is not graded otherwise
    if gg.ideal is not gg.gr:
        raise UnsupportedInputError(
            "arithmetic degree of an inhomogeneous presentation: the corpus "
            "restricts to pairs whose graded sides are total-degree graded")

    # theorem: LHS via Ext on GG read totally graded.  Pruning drops the
    # bigrading on a new handle, so GG's cached basis is not reused there;
    # seeding the new handle from it measured no gain
    lhs_table = _adeg_of_graded_ideal(gg.ideal)

    # RHS: local arithmetic degrees
    dims = max(dimension(J), 0)
    rhs_table = {}
    for r in range(max(dims, max(lhs_table) if lhs_table else 0) + 1):
        vec = ladeg(J, I, r, meta=meta)
        rhs_table[r] = vec.total()

    failures = []
    for r in sorted(set(lhs_table) | set(rhs_table)):
        lv = lhs_table.get(r, 0)
        rv = rhs_table.get(r, 0)
        if lv < rv:
            failures.append("theorem fails at r=%d: %d < %d" % (r, lv, rv))

    # corollary 1: adeg_i(gr_I A) >= adeg_i(A), on the theorem's table
    cor1_gr = lhs_table
    cor1_a, _prov = _adeg_of_ring_quotient(J, meta)
    for i in sorted(set(cor1_gr) | set(cor1_a)):
        gv = cor1_gr.get(i, 0)
        av = cor1_a.get(i, 0)
        if gv < av:
            failures.append("corollary 1 fails at i=%d: %d < %d" % (i, gv, av))

    # corollary 2: embedded primes propagate for equidimensional A
    embedded_dims = []
    equidim = meta.get("equidimensional")
    embedded_checked = False
    if J.is_monomial() and not J.is_zero():
        dec = decompose(J)
        n = ring.nvars
        dims_minimal = {n - len(p) for p in dec.minimal_primes}
        equidim = len(dims_minimal) == 1
        embedded_dims = sorted({n - len(p) for p in dec.embedded_primes})
    elif meta.get("prime"):
        equidim = True
    if equidim and embedded_dims:
        embedded_checked = True
        for i in embedded_dims:
            if cor1_gr.get(i, 0) <= 0:
                failures.append(
                    "corollary 2 fails: embedded dimension %d not visible in gr" % i)

    record = VerificationRecord(
        label, lhs_table, rhs_table, cor1_gr, cor1_a, embedded_dims,
        embedded_checked, bool(equidim), not failures,
        detail="; ".join(failures))
    if failures:
        raise TheoremViolationError(
            "verification failed for %s: %s" % (label, record.detail),
            record=record)
    return record
