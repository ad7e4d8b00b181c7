"""Groebner engine for ideals and submodules; ideal arithmetic.

Two Buchberger loops share one division loop and one interreduction.
Ideals take the signature loop (_signature_groebner): GVW's criteria
(Gao, Volny and Wang, Math. Comp. 2016) on signatures ordered by their
Schreyer images, J-pairs in a heap by signature, regular reductions only.
Submodules take the sugar loop (_groebner), which serves polynomials too
as the tests' reference: pairs form only between lead terms in the same
component, are chosen by the sugar strategy (smallest sugar, then
smallest lcm in the term order) and are pruned by Gebauer-Moeller, with
no product criterion, since above rank 1 coprime leads can leave a
nonzero S-vector (x*e1 + e2 and y*e1 give y*e2).  Output bases are
reduced (monic, minimal, tail-reduced) and canonically sorted, so every
computation is reproducible byte for byte.  The division loop works on
Python ints for every field and order: terms packed into ints whose
linear keys add under multiplication, coefficients over Q as numerators
over one common denominator, over Z/p as residues; it returns field
elements.  An S-pair enters the same loop as int numerators over
lcm(L_f, L_g), built from the two elements' integer forms, and never
exists as Fractions; a new basis element leaves it monic, with its
integer form read off the same ints.  ``s_polynomial`` (and
``modules.s_vector``) build S-elements on Fractions: they are the oracle
that checks a returned basis, not the engine's route.

Both loops keep what they learn to the end of the run, and the final
interreduction takes their leads and forms slots (packed leads and
integer forms), so no lead, integer form or normal form is recomputed
there.  Pairs, heads in the division loop, Schreyer pairs and the
minimality test are indexed by component: a lead divides only leads in
its own component, and polynomials have one.  The heads' index lives with
a basis's slots (_Slots), so a basis builds it once, not per division,
and so does the memo of which head divides a popped term, so a basis
scans its heads for a term once.  Gebauer-Moeller runs on the same packed
leads: lcms and divisibility are int operations on their exponent fields
(Bachmann and Schoenemann, ISSAC 1998), and only the pairs kept get a key
and a sugar; the signature loop's criteria test packed signatures the
same way.
"""

from bisect import insort
from collections import namedtuple
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import lshift, mul

from .errors import AlgebraError, ResourceLimitError, RingMismatchError
from .orders import DegRevLex
from .rings import (Polynomial, RingDescriptor, minimal_monomials, mono_div,
                    mono_lcm, mono_mul, terms_key)

DEFAULT_MAX_BASIS = 2000
DEFAULT_MAX_DEGREE = 40


# ---------------------------------------------------------------------------
# the engine shared with modules.py
#
# A term is a monomial for a polynomial and a (component, monomial) pair for
# a free-module vector.  Polynomials and vectors both offer ``terms``,
# ``leading_term``, ``monic`` and ``degree``; a _Terms bundle supplies the
# rest.  div(t, s) is the monomial q with t = q*s, or None; mul(q, t) is q*t;
# lcm(s, t) is the least common multiple, or None when s and t lie in
# different components; comp(t) is t's component (0 for every monomial);
# make(f, terms) builds an element like f.
_Terms = namedtuple("_Terms", "div mul lcm comp make name")

_POLY = _Terms(mono_div, mono_mul, mono_lcm, lambda t: 0,
               lambda f, terms: Polynomial(f.ring, terms, _clean=False),
               "Groebner")


def _s_element(f, g, order, ops):
    """Terms of the S-element qf*f/cf - qg*g/cg of f and g, whose leads
    (tf, cf) and (tg, cg) lie in one component, with qf*tf = qg*tg the lcm
    of tf and tg.  It works on Fractions and is the reference that checks
    of a returned basis use (s_polynomial, modules.s_vector); the engine
    never builds an S-element (_divide_pair)."""
    (tf, cf), (tg, cg) = f.leading_term(order), g.leading_term(order)
    lcm = ops.lcm(tf, tg)
    qf, qg = ops.div(lcm, tf), ops.div(lcm, tg)
    one = f.ring.field.one
    rf, rg = one / cf, one / cg
    terms = {ops.mul(qf, t): c * rf for t, c in f.terms.items()}
    for t, c in g.terms.items():
        t = ops.mul(qg, t)
        s = terms.get(t, 0) - c * rg
        if s:
            terms[t] = s
        else:
            del terms[t]
    return terms


def _flat(key):
    """The ints of a nested key tuple, in order."""
    out = []
    for k in key:
        if type(k) is tuple:
            out += _flat(k)
        else:
            out.append(k)
    return out


class _Packer:
    """Terms of one order packed into ints (polynomials, or vectors on rank
    components): the term's linear key above a field of width bits per
    variable and, for vectors, two fields holding c and E - c at component
    c.  Each field's top bit is a guard bit, so fields hold at most
    E = bound.  Then q*u packs to q + u and t/s to t - s, s divides t when
    ((t | G) - s) & G == G for the guard mask G (equal components
    included), and the ints sort like the order; a term that does not fit
    raises OverflowError.  Row j of the order's matrix is entry j of the
    flattened key, read off the unit vectors and each component's 1; the
    rows fold into one int as the digits of a mixed radix, each base one
    more than its row's spread on terms that fit."""

    def __init__(self, order, nvars, rank=None, width=8):
        self.width, self.bound = width, (1 << width - 1) - 1
        self.vectors = rank is not None

        def flat(m, c=0):
            return _flat(order.key(m if rank is None else (c, m)))
        zero = (0,) * nvars
        offsets = [flat(zero, c) for c in range(rank or 1)]
        units = [flat(zero[:i] + (1,) + zero[i + 1:]) for i in range(nvars)]
        self.weights, self.offsets = [0] * nvars, [0] * len(offsets)
        for j, start in enumerate(offsets[0]):
            row = [u[j] - start for u in units]
            at = [o[j] for o in offsets]
            base = max(at) - min(at) + self.bound * sum(map(abs, row)) + 1
            self.weights = [w * base + r for w, r in zip(self.weights, row)]
            self.offsets = [o * base + a for o, a in zip(self.offsets, at)]
        self.shifts = range(0, (nvars + 2 * self.vectors) * width, width)
        self.guards = sum(self.bound + 1 << s for s in self.shifts)
        self.top = len(self.shifts) * width
        # a packed term's component is t >> comp_shift & comp_mask (0 for
        # every monomial); t & fields is its exponent fields, the key above
        # them dropped, and values masks the fields' bits below their guards
        self.comp_shift, self.comp_mask = ((self.shifts[-2], (1 << width) - 1)
                                           if self.vectors else (0, 0))
        self.fields = (1 << self.top) - 1
        self.values = self.fields ^ self.guards

    def pack(self, t):
        c, m = t if self.vectors else (0, t)
        fields = m + (c, self.bound - c) if self.vectors else m
        if max(fields) > self.bound:
            raise OverflowError
        return ((self.offsets[c] + sum(map(mul, self.weights, m)) << self.top)
                + sum(map(lshift, fields, self.shifts)))

    def unpack(self, t):
        """The term packed as t; a packed quotient of vectors unpacks to
        (0, monomial)."""
        mask = (1 << self.width) - 1
        fields = tuple(t >> s & mask for s in self.shifts)
        return (fields[-2], fields[:-2]) if self.vectors else fields

    def lcm(self, a, b):
        """The exponent fields of the lcm of two terms of one component,
        from theirs: each field's larger value, in SWAR.  The guard bit of
        each field of ge is set where a's field is at least b's; m fills
        the value bits below those guards, and picks a's fields there and
        b's elsewhere."""
        G = self.guards
        ge = ((a | G) - b) & G
        m = ge - (ge >> self.width - 1)
        return a & m | b & (self.values ^ m)


class _Slots(list):
    """The forms slots of a basis, one per element: (packer, packed lead,
    _int_form or None), filled by the divisions that need them; whoever
    keeps a basis keeps its slots beside it.  heads(packer, leads) is the
    index of the packed leads by component that _divide_packed looks a
    popped term up in: a list of (k, packed lead) per component field.  It
    is kept for one packer and grows with the list, so a basis pays for it
    once, not per division; for another packer every slot is packed again
    and the index is rebuilt.

    divisor is the memo of that look-up, kept and reset with the index: a
    packed term maps to the k of the first head in its component's list
    that divides it, or, when none did, to ~c for the c heads scanned.  It
    is exact because a component's list only grows by appending while the
    packer stays: the first dividing head never changes, and a miss
    resumes its scan at head c."""

    __slots__ = ("packer", "index", "indexed", "divisor")

    def __init__(self, slots):
        super().__init__(slots)
        self.packer, self.index, self.indexed, self.divisor = None, {}, 0, {}

    def heads(self, packer, leads):
        if packer is not self.packer:
            self.packer, self.index, self.indexed = packer, {}, 0
            self.divisor = {}
        shift, mask = packer.comp_shift, packer.comp_mask
        for k in range(self.indexed, len(self)):
            slot = self[k]
            if slot is None or slot[0] is not packer:
                slot = self[k] = (packer, packer.pack(leads[k][0]), None)
            self.index.setdefault(slot[1] >> shift & mask, []).append(
                (k, slot[1]))
            self.indexed = k + 1
        return self.index


def _int_form(f, lead, pack):
    """f on ints, as (rest, L, d) with d*f = L*t + the sum of c*u over
    (u, c) in rest, where lead = (t, c0) is f's lead and each u is packed.
    Over Q, d is the lcm of f's denominators, signed so that L = d*c0 > 0;
    over Z/p, d = 1/c0, L = 1 and rest holds residues."""
    t, c0 = lead
    p = f.ring.field.characteristic
    if p:
        d = pow(c0.value, -1, p)
        return ([(pack(u), c.value * d % p) for u, c in f.terms.items()
                 if u != t], 1, d)
    L, d = c0.as_integer_ratio()
    if len(f.terms) > 1:
        d = lcm(*[c.denominator for c in f.terms.values()])
        L *= d // c0.denominator
    if L < 0:
        d, L = -d, -L
    rest = [(pack(u), c.numerator * (d // c.denominator))
            for u, c in f.terms.items() if u != t]
    return rest, L, d


def _divide(terms, basis, leads, order, ops, quotients=None, forms=None):
    """Remainder terms of dividing terms by basis, where leads[k] is the
    (lead term, coefficient) pair of basis[k]; no remainder term is
    divisible by a lead, and they come in descending order.  When quotients
    is a dict, each step's quotient r*q*E_k is added into quotients[(k, q)].
    forms, when given, is the basis's _Slots, kept by whoever keeps the
    basis; without it, the division makes its own.  A basis of single
    terms takes no steps: a term goes to the quotient at the first lead
    dividing it, or to the remainder.  Other divisions run _divide_packed
    (see _packed_run); an S-element enters the same loop through
    _divide_pair instead."""
    if all(len(g.terms) == 1 for g in basis):
        remainder = {}
        for t in sorted(terms, key=order.key, reverse=True):
            c = terms[t]
            for k, (s, cs) in enumerate(leads):
                q = ops.div(t, s)
                if q is not None:
                    if quotients is not None and c:
                        quotients[(k, q)] = quotients.get((k, q), 0) + c / cs
                    break
            else:
                if c:
                    remainder[t] = c
        return remainder

    field = basis[0].ring.field

    def start(packer, forms):
        if field.characteristic:
            return {packer.pack(t): c.value for t, c in terms.items()}, 1
        return {packer.pack(t): c for t, c in terms.items()}, 0
    packer, remainder = _packed_run(start, basis, leads, order, quotients,
                                    forms)
    return {packer.unpack(t): field(n, D) if D else n
            for t, n, D in remainder}


def _divide_pair(i, j, basis, leads, order, ops, quotients=None, forms=None):
    """Divide the S-element of basis[i] and basis[j], whose leads lie in
    one component, by basis, and return the remainder made monic, as
    _monic_form gives it; quotients as _divide adds them.  The S-element is
    never built: it enters the loop as int numerators over
    D = lcm(Li, Lj), where (rest, L, d) is an element's _int_form.  f/cf is
    t + rest/L for f's lead (t, cf), so with q the lcm of the leads over t,
    packed, work is q + u -> c*(D/L) over rest_i minus the same over
    rest_j.  That is L, not d: they agree only for monic elements.  Over
    Z/p, L = D = 1.  Two single terms leave the S-element zero."""
    if len(basis[i].terms) == len(basis[j].terms) == 1:
        return None
    start = _pair_start(i, j, basis, leads, ops.lcm(leads[i][0], leads[j][0]))
    return _monic_form(*_packed_run(start, basis, leads, order, quotients,
                                    forms), basis[0].ring.field)


def _pair_start(i, j, basis, leads, lcm_term):
    """The start of _divide_packed on the S-element of basis[i] and
    basis[j], whose leads have the lcm lcm_term (_divide_pair)."""
    def start(packer, forms):
        top = packer.pack(lcm_term)
        (si, (rest_i, Li, _)), (sj, (rest_j, Lj, _)) = (
            _slot_form(basis, leads, forms, i), _slot_form(basis, leads, forms, j))
        D = lcm(Li, Lj)
        q, a = top - si, D // Li
        work = {q + u: c * a for u, c in rest_i}
        q, a = top - sj, D // Lj
        for u, c in rest_j:
            u += q
            work[u] = work.get(u, 0) - c * a
        if any(u & packer.guards for u in work):
            raise OverflowError
        return work, D
    return start


def _packed_run(start, basis, leads, order, quotients, forms):
    """Run _divide_packed from start(packer, forms), which packs the
    dividend as (work, D), with the ring's packer (_packed): a term that
    outgrows it starts the division again on a wider one.  Adds the
    quotients into quotients, as field elements, and returns the packer
    and the packed remainder."""
    if forms is None:
        forms = _Slots([None] * len(basis))
    packer, (remainder, steps) = _packed(
        basis[0], order, lambda packer: _divide_packed(
            start, basis, leads, packer, forms, quotients is not None))
    field = basis[0].ring.field
    for k, q, n, D in steps:
        kq = (k, packer.unpack(q)[1] if packer.vectors else packer.unpack(q))
        quotients[kq] = quotients.get(kq, 0) + field(n, D)
    return packer, remainder


def _packed(f, order, run):
    """(packer, run(packer)) for the packer that f's ring.memo keeps for
    the order and f's kind; when a term outgrows it, ring.memo gets one of
    twice the width and run starts again."""
    ring, rank = f.ring, getattr(f, "rank", None)
    memo_key = ("packer", order, rank)
    while True:
        packer = ring.memo.get(memo_key) or _Packer(order, ring.nvars, rank)
        ring.memo[memo_key] = packer
        try:
            return packer, run(packer)
        except OverflowError:
            ring.memo[memo_key] = _Packer(order, ring.nvars, rank,
                                          2 * packer.width)


def _monic_form(packer, remainder, field):
    """(terms, slot) of the monic element of a packed remainder of int
    numerators, or None when it is zero: its terms, and its forms slot
    with the _int_form of the monic element read off the same ints.  Over
    Q the numerators are brought to the D of the last pop, which every
    earlier D divides, and divided by their gcd, signed so that the lead
    L > 0; then d = L.  Over Z/p they are divided by the lead, L = d = 1."""
    if not remainder:
        return None
    p = field.characteristic
    if p:
        inv = pow(remainder[0][1], -1, p)
        ns = [n * inv % p for _, n, _ in remainder]
    else:
        top = remainder[-1][2]
        ns = [n * (top // D) for _, n, D in remainder]
        g = gcd(*ns)
        ns = [n // g for n in ns] if ns[0] > 0 else [-n // g for n in ns]
    L = ns[0]
    ts = [t for t, _, _ in remainder]
    terms = {packer.unpack(t): field(n, L) for t, n in zip(ts, ns)}
    return terms, (packer, ts[0], (list(zip(ts[1:], ns[1:])), L, L))


def _slot_form(basis, leads, forms, k):
    """(packed lead, _int_form) of basis[k], from its slot, which holds
    the packed lead; the form is made and kept there on first use."""
    packer, s, form = forms[k]
    if form is None:
        form = _int_form(basis[k], leads[k], packer.pack)
        forms[k] = (packer, s, form)
    return s, form


def _divide_packed(start, basis, leads, packer, forms, with_quotients,
                   sig=None):
    """The loop of _divide on packed terms, from (work, D) = start(packer,
    forms): the remainder as a list of (packed term, n, D) and the quotient
    steps as a list of (k, packed q, numerator, denominator); no field
    element is built here but the Fractions a dividend over Q brings.

    work holds int numerators over one common denominator D.  pending holds
    the packed terms of work, ascending, so the pop is the largest term of
    work; a cancelled term stays in work at zero until popped.  Over Z/p,
    work holds residues over D = 1 and a popped numerator is reduced mod p.
    Over Q, a dividend given as terms keeps its Fractions in work, with
    D = 0, until the first step, and a term popped before it goes to the
    remainder as it is (a quarter of the corpus divisions take no step).
    Dividing a popped numerator n by (rest, L, d) subtracts n/L times the
    form: with h = gcd(n, L), work and D are scaled by a = L/h when a != 1,
    then (n/h)*q*rest is subtracted.  A remainder term is n/D at the D of
    its pop (n itself when D = 0), and a quotient n*d/(D*L).  A popped
    term is tested only against the heads of its own component, read off
    its component field in the index the slots keep (_Slots.heads;
    polynomials have one component), and only once per basis: the slots'
    divisor memo names the head that divides it, or where a scan that
    found none resumes once the basis has grown.

    sig = (images, indices, T, i) makes the division regular, for the
    signature loop (_signature_groebner, polynomials only, so head k sits
    at place k of the one component's list): a head k divides the popped
    term t only when the signature of its step, (t - s) + images[k] at
    index indices[k], lies below (T, i); the scan goes on from the first
    dividing head to the first regular one, and a term with none goes to
    the remainder.  The loop's first generator divides by an empty basis,
    which leaves it whole."""
    p = basis[0].ring.field.characteristic if basis else 0
    heads = forms.heads(packer, leads)
    divisor = forms.divisor
    shift, mask = packer.comp_shift, packer.comp_mask
    G = packer.guards
    remainder, steps = [], []
    if sig:
        images, indices, T, Ti = sig
    work, D = start(packer, forms)
    pending = sorted(work)
    while pending:
        t = pending.pop()
        n = work.pop(t)
        if p:
            n %= p
        if not n:
            continue  # cancelled to zero
        k = divisor.get(t, -1)
        if k < 0:
            row = heads.get(t >> shift & mask, ())
            tg = t | G
            for at in range(~k, len(row)):
                k, s = row[at]
                if (tg - s) & G == G:
                    divisor[t] = k
                    break
            else:
                divisor[t] = ~len(row)
                remainder.append((t, n, D))
                continue
        else:
            s = forms[k][1]
        if sig:
            row, tg = heads[0], t | G
            for at in range(k, len(row)):
                k, s = row[at]
                if (tg - s) & G == G:
                    u = t - s + images[k]
                    if u & G:
                        raise OverflowError
                    if u < T or u == T and indices[k] < Ti:
                        break
            else:
                remainder.append((t, n, D))
                continue
        if not D:
            D = lcm(n.denominator, *[c.denominator for c in work.values()])
            n = n.numerator * (D // n.denominator)
            work = {u: c.numerator * (D // c.denominator)
                    for u, c in work.items()}
        rest, L, d = forms[k][2] or _slot_form(basis, leads, forms, k)[1]
        q = t - s
        if with_quotients:
            steps.append((k, q, n * d, D * L))
        if L != 1:
            h = gcd(n, L)
            a = L // h
            n //= h
            if a != 1:
                for u in work:
                    work[u] *= a
                D *= a
        for u, c in rest:
            tt = q + u
            old = work.get(tt)
            if old is None:
                if tt & G:
                    raise OverflowError
                insort(pending, tt)
                old = 0
            work[tt] = old - n * c
    return remainder, steps


def _update_pairs(P, members, forms, leads, sugar, n, order, ops, deg):
    """Gebauer-Moeller update when element n, with lead term t =
    leads[n][0], joins elements 0..n-1.  P maps a component to its pairs,
    each (i, j) to the record (sugar, lcm key, i, j, lcm, packed lcm) made
    here, and members maps a component to the indices of its elements
    (polynomials have one).  Only t's component is touched: an old pair
    there is dropped when t divides its stored lcm, unless t spans that
    lcm with the pair's i or j, and new pairs form with the leads there,
    one per minimal lcm.  sugar[k] is element k's sugar and deg the ring's
    degree; a pair's sugar is the larger of sugar[i] + deg(qi) and
    sugar[j] + deg(qj), with qi*lead_i = qj*lead_j their lcm.

    The tests run on the leads' exponent fields, read off the packed leads
    in forms (one packer for every slot): a packed lcm is those fields
    alone, lcms come from _Packer.lcm, and s divides u when ((u | G) - s)
    & G == G.  The fields sort as a linear extension of divisibility, so the minimal lcms
    are found in that order with no key; the key, the sugar and the lcm
    as a term are made for the pairs kept."""
    packer = forms.packer
    F, G = packer.fields, packer.guards
    t = leads[n][0]
    u = forms[n][1] & F
    comp = ops.comp(t)
    same = members.setdefault(comp, [])
    fields = {i: forms[i][1] & F for i in same}
    lcm_u = {i: packer.lcm(a, u) for i, a in fields.items()}
    pairs = {ij: rec for ij, rec in P.get(comp, {}).items()
             if ((rec[5] | G) - u) & G != G
             or rec[5] in (lcm_u[ij[0]], lcm_u[ij[1]])}
    # group the new pairs by lcm, keep one representative per minimal lcm
    groups = {}
    for i, lcm in lcm_u.items():
        groups.setdefault(lcm, []).append(i)
    minimal = []
    for lcm in sorted(groups):
        lg = lcm | G
        if any((lg - m) & G == G for m in minimal):
            continue
        minimal.append(lcm)
        i = groups[lcm][0]
        term = ops.lcm(leads[i][0], t)
        pairs[(i, n)] = (max(sugar[i] + deg(ops.div(term, leads[i][0])),
                             sugar[n] + deg(ops.div(term, t))),
                         order.key(term), i, n, term, lcm)
    same.append(n)
    if pairs:
        P[comp] = pairs
    else:
        P.pop(comp, None)


def _reduce(G, leads, order, ops, forms=None):
    """The minimal part of G, sorted by lead term, and its leads, where
    leads[k] is the (lead term, coefficient) pair of G[k]: an element is
    dropped when an earlier lead in its component divides its lead.  With
    forms, the slots of G for the division loop, G is a monic Groebner
    basis, and each kept element's tail is divided once by the whole
    minimal part, which reduces it: no tail term, nor any term the
    division makes from it, is divisible by the element's own lead, which
    lies above them all, so the leads stay."""
    kept, by_comp = [], {}
    for k in sorted(range(len(G)), key=lambda k: order.key(leads[k][0])):
        t = leads[k][0]
        same = by_comp.setdefault(ops.comp(t), [])
        if all(ops.div(t, s) is None for s in same):
            same.append(t)
            kept.append(k)
    minimal = [G[k] for k in kept]
    leads = [leads[k] for k in kept]
    if forms is None:
        return minimal, leads
    forms = _Slots(forms[k] for k in kept)
    reduced = []
    for f, (t, c) in zip(minimal, leads):
        # a single term, or a lone element, is reduced already
        if len(f.terms) > 1 and len(minimal) > 1:
            tail = dict(f.terms)
            del tail[t]
            terms = {t: c}
            terms.update(_divide(tail, minimal, leads, order, ops, None,
                                 forms))
            f = ops.make(f, terms)
        reduced.append(f)
    return reduced, leads


def _groebner(gens, order, ops, max_basis, max_degree):
    """Reduced Groebner basis of the span of gens (nonzero elements of one
    kind), by the sugar loop that module bases take (and the tests, as
    the signature loop's reference, with _POLY): sugar strategy,
    Gebauer-Moeller pairs, each pair divided by
    _divide_pair as int numerators over lcm(L_i, L_j), with no S-element
    built; a nonzero remainder joins the basis monic, with its forms slot
    filled.  The loop's state lasts to the end of the run: leads[k] is the
    (lead term, coefficient) pair of basis[k], forms holds a slot per
    element for the division loop, sugar[k] is a generator's degree or the
    sugar of the pair that made basis[k], members and P index the elements
    and the pairs by component (_update_pairs), and each pair carries its
    sugar, lcm, lcm key and packed lcm from when it was made.  Pairs go by
    (sugar, lcm key), then by index.  The slots are packed up front, since
    _update_pairs reads the leads off them; when a division widens the
    ring's packer, the slots hold the wider packer's leads and every
    stored pair's packed lcm is made again from them.  The final
    interreduction (_reduce) takes leads and forms as they stand."""
    G = [f.monic(order) for f in gens]
    leads = [f.leading_term(order) for f in G]
    sugar = [f.degree() for f in G]
    forms = _Slots([None] * len(G))
    deg = G[0].ring.degree if G else None
    P, members = {}, {}
    if any(len(f.terms) > 1 for f in G):
        # (single-term elements are a Groebner basis already)
        packer = _packed(G[0], order,
                         lambda packer: forms.heads(packer, leads))[0]
        for n in range(len(G)):
            _update_pairs(P, members, forms, leads, sugar, n, order, ops, deg)
    while P:
        s, _, i, j, lcm, _ = min(min(pairs.values()) for pairs in P.values())
        comp = ops.comp(lcm)
        del P[comp][(i, j)]
        if not P[comp]:
            del P[comp]
        got = _divide_pair(i, j, G, leads, order, ops, None, forms)
        if forms.packer is not packer:
            # a term outgrew the packer, and the slots hold the wider one's
            # leads: every stored pair's packed lcm is made again for it
            packer, F = forms.packer, forms.packer.fields
            for pairs in P.values():
                for ij, rec in pairs.items():
                    pairs[ij] = rec[:5] + (packer.pack(rec[4]) & F,)
        if got:
            terms, slot = got
            r = ops.make(G[i], terms)
            if r.degree() > max_degree:
                raise ResourceLimitError(
                    "%s degree cap %d exceeded" % (ops.name, max_degree),
                    basis_size=len(G), degree=r.degree())
            G.append(r)
            t = next(iter(terms))
            leads.append((t, terms[t]))
            sugar.append(s)
            forms.append(slot)
            _update_pairs(P, members, forms, leads, sugar, len(G) - 1, order,
                          ops, deg)
            if len(G) > max_basis:
                raise ResourceLimitError(
                    "%s basis size cap %d exceeded" % (ops.name, max_basis),
                    basis_size=len(G))
    return _reduce(G, leads, order, ops, forms)[0]


def _signature_groebner(F, order, packer, max_basis, max_degree):
    """Reduced Groebner basis of the ideal of the monic generators F, by
    the signature loop of Gao, Volny and Wang (Math. Comp. 2016) on one
    packer; buchberger runs it again from the start on a wider packer
    when a term or a signature outgrows the ring's (_packed).

    A signature m*e_i is kept as (image, i), its Schreyer image m*lt(F[i])
    packed: signatures compare as these pairs, and m*e_i divides m'*e_i
    when the images do.  Element k of the basis G has the signature
    (images[k], indices[k]), and members[i] lists the elements of index i.
    A J-pair sits in the heap as (image, i, packed lead, reducer, carrier):
    the carrier's multiple of the larger signature, entering the division
    as the S-element of the two (_pair_start); generator n enters as
    (lt(F[n]), n, lt(F[n]), -1, n).  A popped J-pair is skipped when it
    repeats the signature before it, when a signature in syz divides its
    own (those of zero remainders, of the J-pairs of two single terms,
    whose S-element is zero, and the Koszul ones: the larger of
    lt(g)*sig(h) and lt(h)*sig(g) for two elements g, h), or
    when an element k of its index has images[k] dividing its image with
    quotient q and q*lt(G[k]) below its lead (the cover criterion).  The
    rest are divided regularly (_divide_packed), and a nonzero remainder
    joins G monic (a generator no step divided joins as it is), unless
    its lead is singular top-reducible: q*lt(G[k])
    for some k with q*sig(G[k]) its own signature.  No J-pair forms for
    coprime leads, nor for two multiples of one signature.  Sums of
    packed terms sort like the order only while they fit (fits).  The
    degree cap applies to the elements made from J-pairs, and max_basis
    counts G.  The final interreduction (_reduce) takes G's leads and
    forms slots as they stand."""
    pack, guards, fields = packer.pack, packer.guards, packer.fields
    field = F[0].ring.field
    G, leads, forms, images, indices = [], [], _Slots([]), [], []
    syz, members = {}, {}

    def fits(u):
        if u & guards:
            raise OverflowError
        return u

    def divides(t, s):
        return ((t | guards) - s) & guards == guards

    def syzygy(T, i):
        tg = T | guards
        return any((tg - h) & guards == guards for h in syz.get(i, ()))

    def add_syzygy(T, i):
        tg = T | guards
        hs = syz.setdefault(i, [])
        if all((tg - h) & guards != guards for h in hs):
            hs.append(T)

    lts = [f.leading_term(order) for f in F]
    heap = [(t, n, t, -1, n) for n, t in enumerate(pack(t) for t, _ in lts)]
    heapify(heap)
    last = None
    while heap:
        T, Ti, top, i, j = heappop(heap)
        if (T, Ti) == last or syzygy(T, Ti):
            continue
        last = T, Ti
        same = members.setdefault(Ti, [])
        if i < 0:
            rest, L, d = form = _int_form(F[j], lts[j], pack)
            start = lambda packer, forms: (dict([(top, L)] + rest), d)
        elif any(divides(T, images[k])
                 and fits(T - images[k] + forms[k][1]) < top for k in same):
            continue
        else:
            start = _pair_start(i, j, G, leads, packer.unpack(top))
        remainder, steps = _divide_packed(start, G, leads, packer, forms,
                                          i < 0, (images, indices, T, Ti))
        if i < 0 and not steps:
            r, lead, slot = F[j], lts[j], (packer, top, form)
        else:
            got = _monic_form(packer, remainder, field)
            if got is None:
                syz.setdefault(Ti, []).append(T)
                continue
            terms, slot = got
            r, lead = Polynomial(F[0].ring, terms, _clean=False), next(
                iter(terms.items()))
        w = slot[1]
        if any(divides(w, forms[k][1]) and w - forms[k][1] + images[k] == T
               for k in same):
            continue
        if i >= 0 and r.degree() > max_degree:
            raise ResourceLimitError(
                "Groebner degree cap %d exceeded" % max_degree,
                basis_size=len(G), degree=r.degree())
        n = len(G)
        wf = w & fields
        for k, (s, _) in enumerate(leads):
            u, v = forms[k][1], images[k]
            a, b = (fits(w + v), indices[k]), (fits(u + T), Ti)
            if a != b:
                add_syzygy(*(a if a > b else b))
            if packer.lcm(wf, u & fields) == wf + (u & fields):
                continue  # coprime leads
            lcm = pack(mono_lcm(s, lead[0]))
            a, b = (fits(lcm - w + T), Ti), (fits(lcm - u + v), indices[k])
            if a == b:
                continue
            if len(r.terms) == len(G[k].terms) == 1:
                # the S-element of two terms is zero
                add_syzygy(*(a if a > b else b))
            else:
                heappush(heap, a + (lcm, k, n) if a > b else b + (lcm, n, k))
        G.append(r)
        leads.append(lead)
        forms.append(slot)
        images.append(T)
        indices.append(Ti)
        same.append(n)
        if len(G) > max_basis:
            raise ResourceLimitError(
                "Groebner basis size cap %d exceeded" % max_basis,
                basis_size=len(G))
    return _reduce(G, leads, order, _POLY, forms)[0]


def s_polynomial(f, g, order):
    """The S-polynomial of f and g, on Fractions: the oracle for the
    Buchberger criterion on a returned basis, not the engine's route."""
    return Polynomial(f.ring, _s_element(f, g, order, _POLY), _clean=False)


def normal_form(f, basis, order, leads=None, forms=None):
    """Remainder of f on division by basis; no term of it is divisible
    by a basis leading monomial.  leads, when given, lists the
    (lead monomial, coefficient) pair of each basis element, and forms,
    when given, the basis's _Slots for _divide."""
    if not basis:
        return f
    leads = leads or [g.leading_term(order) for g in basis]
    return Polynomial(f.ring, _divide(f.terms, basis, leads, order, _POLY,
                                      None, forms), _clean=False)


def buchberger(gens, order, max_basis=DEFAULT_MAX_BASIS,
               max_degree=DEFAULT_MAX_DEGREE):
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = list(gens)
    if any(f.ring != gens[0].ring for f in gens):
        raise RingMismatchError("generators over different rings")
    F = [f.monic(order) for f in gens if f]
    if all(len(f.terms) == 1 for f in F):
        # single terms are a Groebner basis already
        return _reduce(F, [f.leading_term(order) for f in F], order, _POLY,
                       _Slots([None] * len(F)))[0]
    return _packed(F[0], order, lambda packer: _signature_groebner(
        F, order, packer, max_basis, max_degree))[1]


def _poly_sort_key(f, order=DegRevLex()):
    """Sort key of a nonzero generator: its lead's key, then terms_key."""
    if len(f.terms) == 1:
        (m, c), = f.terms.items()
        return (order.key(m), ((m, str(c)),))
    return (order.key(f.leading_monomial(order)), terms_key(f.terms))


def _proportional(f, g):
    """True when f is a scalar multiple of g, for f and g of one support."""
    m = next(iter(g.terms))
    a, b = f.terms[m], g.terms[m]
    return all(c * b == g.terms[t] * a for t, c in f.terms.items())


class IdealHandle:
    """An ideal given by generators, with a cache of derived results.

    The cache is the one owner of what is computed from the ideal: its
    reduced Groebner bases, the cyclic module S/I
    (``hilbert.as_presentation``, which takes its basis from here too),
    its ideal of lowest forms (``constructions.tangent_cone``), the GG
    presentations over S/I (``adeg.cached_gg``) and, for monomial
    ideals, the standard pairs and the primes read off them
    (``monomials``).  They all live and die with the handle and are
    computed under its caps.  A handle derived from others, even one built
    from a bare ring on their behalf (``maximal_ideal(ring, *sources)``),
    takes ``_caps`` of them: the smallest of each cap.  Only the
    homogenized work rings of the initial forms (gr_I's among them) run at
    twice the degree cap.
    """

    __slots__ = ("ring", "gens", "max_basis", "max_degree", "_cache")

    def __init__(self, ring, gens=(), max_basis=DEFAULT_MAX_BASIS,
                 max_degree=DEFAULT_MAX_DEGREE):
        self.ring = ring
        cleaned = []
        for g in gens:
            if isinstance(g, str):
                from .rings import parse_polynomial
                g = parse_polynomial(ring, g)
            if g.ring != ring:
                raise RingMismatchError("generator over %r, ideal over %r"
                                        % (g.ring, ring))
            if g:
                cleaned.append(g)
        if any(g.is_constant() for g in cleaned):
            cleaned = [ring.one()]  # a unit ideal, generated by 1
        # canonicalize: drop scalar multiples of an earlier generator and
        # monomial generators made redundant by another monomial generator
        # (same ideal, smaller list).  Proportional generators share their
        # support, so only generators of one support are compared.
        one = ring.field.one
        keep = [Polynomial(ring, {m: one}, _clean=False)
                for m in minimal_monomials(
                    {next(iter(g.terms)) for g in cleaned if g.is_monomial()})]
        by_support = {}
        for g in cleaned:
            if g.is_monomial():
                continue
            same = by_support.setdefault(frozenset(g.terms), [])
            if not any(_proportional(g, h) for h in same):
                same.append(g)
                keep.append(g)
        keep.sort(key=_poly_sort_key)
        self.gens = tuple(keep)
        self.max_basis = max_basis
        self.max_degree = max_degree
        self._cache = {}

    def _cached(self, key, build):
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build()
        return got

    def groebner_basis(self, order=None):
        order = order or DegRevLex()
        # monomial gens are a monic antichain: their own reduced basis
        return self._cached(order.signature(), lambda: tuple(
            sorted(self.gens, key=lambda g: order.key(next(iter(g.terms))))
            if self.is_monomial() else
            buchberger(self.gens, order, self.max_basis, self.max_degree)))

    def normal_form(self, f, order=None):
        order = order or DegRevLex()
        basis = self.groebner_basis(order)

        def build():
            leads = [g.leading_term(order) for g in basis]
            return leads, _Slots([None] * len(basis))
        leads, forms = self._cached(("leads", order.signature()), build)
        return normal_form(f, basis, order, leads, forms)

    def contains(self, f):
        return not self.normal_form(f)

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def is_monomial(self):
        return all(g.is_monomial() for g in self.gens)

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def is_bihomogeneous(self):
        return all(g.is_bihomogeneous() for g in self.gens)

    def __repr__(self):
        return "(%s)" % ", ".join(repr(g) for g in self.gens) if self.gens else "(0)"


def maximal_ideal(ring, *sources):
    """The ideal of all variables (the origin), under ``_caps`` of the
    handles it is built for; the default caps when there are none."""
    return IdealHandle(ring, ring.gens(),
                       **(_caps(*sources) if sources else {}))


def _caps(*sources):
    """The caps of a handle derived from sources (IdealHandles or
    ModulePresentations): the smallest of theirs, as keywords."""
    return {"max_basis": min(s.max_basis for s in sources),
            "max_degree": min(s.max_degree for s in sources)}


def ideal_sum(*ideals):
    ring = ideals[0].ring
    gens = []
    for I in ideals:
        if I.ring != ring:
            raise RingMismatchError("summing ideals over different rings")
        gens.extend(I.gens)
    return IdealHandle(ring, gens, **_caps(*ideals))


def ideal_product(I, J):
    """I*J.  Monomial ideals multiply as sets of exponent tuples, with no
    coefficient arithmetic; IdealHandle keeps the minimal products."""
    if I.ring != J.ring:
        raise RingMismatchError("multiplying ideals over different rings")
    if not (I.is_monomial() and J.is_monomial()):
        return IdealHandle(I.ring, [f * g for f in I.gens for g in J.gens],
                           **_caps(I, J))
    one = I.ring.field.one
    products = {mono_mul(next(iter(f.terms)), next(iter(g.terms)))
                for f in I.gens for g in J.gens}
    return IdealHandle(I.ring, [Polynomial(I.ring, {m: one}, _clean=False)
                                for m in products], **_caps(I, J))


def ideal_power(I, k):
    if k < 0:
        raise AlgebraError("negative ideal power")
    if k == 0:
        return IdealHandle(I.ring, [I.ring.one()], **_caps(I))
    result = I
    for _ in range(k - 1):
        result = ideal_product(result, I)
    return result


# ---------------------------------------------------------------------------
# ring extension plumbing for the homogenized work rings

def extended_ring(ring, extra_names):
    """Same variables plus fresh trailing ones; grading data is dropped
    (only term orders matter in a work ring)."""
    names = ring.names + tuple(extra_names)
    return RingDescriptor(names, field=ring.field)


def inject(f, big_ring):
    """View a polynomial inside a ring with extra trailing variables."""
    pad = big_ring.nvars - f.ring.nvars
    terms = {m + (0,) * pad: c for m, c in f.terms.items()}
    return Polynomial(big_ring, terms, _clean=False)


def fresh_names(ring, base, count):
    names = []
    used = set(ring.names)
    i = 0
    while len(names) < count:
        i += 1
        cand = "%s%d" % (base, i)
        if cand not in used:
            names.append(cand)
            used.add(cand)
    return names

