"""Equality decision procedure.

A well-formed term denotes a polynomial in its free parameters whose
coefficients weigh the chains.  Two terms are derivably equal exactly when
their normal forms, computed jointly at a common depth ``k`` and level
``n`` over the merged chain list, coincide.  A leaf of a normal form is the
polynomial's Bernstein coefficient of degree ``k`` at that multi-index,
scaled to a primitive integer vector, so the forms coincide exactly when
the polynomials do.

``equal`` therefore compares the polynomials in the power basis and builds
no grid.  The leaf walk gives each term as root groups over one common
denominator.  A group with ``d`` choices and ``r`` right branches on a
parameter ``p`` stands for ``p^(d-r) (1-p)^r``, which expands to
``sum_s (-1)^s C(r, s) p^(d-r+s)``.  Summed per exponent vector and chain,
these give the polynomial's unique power-basis coefficients (the change of
basis of Farouki and Rajan, which ``semantics.to_bernstein`` makes the
other way), and they do not depend on ``k``.  Each term's sums are compared
multiplied by the other term's denominator.

When the terms differ, the verdict carries the same witness as a
comparison of the dense forms: the first multi-index, in
``itertools.product`` order, whose primitive vectors differ, and the first
chain column there in canonical order.  The leaves are computed one at a
time from the groups, and the scan stops at that one.  The normal forms
are built only when a verdict's ``left`` or ``right`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gcd

from .normalizer import _MASK, _W, Chain, NormalForm, _LeafWalk
from .terms import Context, Term


@dataclass
class Witness:
    """First multi-index and chain column where the weight vectors differ."""

    index: tuple[int, ...]
    column: int
    chain: Chain
    left_weight: int
    right_weight: int

    def describe(self, ctx: Context) -> str:
        key = ",".join(map(str, self.index))
        return (f"I=({key}) chain[{self.column}] {self.chain.describe(ctx)}: "
                f"{self.left_weight} vs {self.right_weight}")


@dataclass
class Verdict:
    """The decision at the joint depth ``k`` and level ``n``.  ``left`` and
    ``right`` are the joint normal forms, built from ``walk`` on first
    read."""

    equal: bool
    k: int
    n: int
    walk: _LeafWalk = field(repr=False, compare=False)
    witness: Witness | None = None

    @cached_property
    def _forms(self) -> list[NormalForm]:
        return self.walk.forms(self.k, self.n)

    @property
    def left(self) -> NormalForm:
        return self._forms[0]

    @property
    def right(self) -> NormalForm:
        return self._forms[1]


def _power(common: int, groups: list, ell: int) -> dict[int, dict[int, int]]:
    """One term's polynomial in the power basis: per exponent vector, the
    weight of each chain id over ``common``, zeros dropped.

    The groups are expanded one parameter at a time, in place of their
    signature: ``p_a^(d-r) (1-p_a)^r`` becomes the ``r + 1`` exponents
    ``d - r + s`` of ``p_a``, packed where ``d`` was, and ``r`` is cleared.
    Groups that then agree on every field merge, so a term whose groups
    cover the grid one leaf each, as a reified form's do, costs a few
    passes over the grid and not its square."""
    items = dict(groups)
    for a in range(ell):
        lo, hi = 2 * a * _W, (2 * a + 1) * _W
        out: dict[int, dict[int, int]] = {}
        for sig, vec in items.items():
            d, r = sig >> lo & _MASK, sig >> hi & _MASK
            base = sig - (d << lo) - (r << hi)
            for s in range(r + 1):
                c = (-1) ** s * comb(r, s)
                e = base + ((d - r + s) << lo)
                into = out.get(e)
                if into is None:
                    out[e] = {cid: c * v for cid, v in vec.items()}
                else:
                    for cid, v in vec.items():
                        into[cid] = into.get(cid, 0) + c * v
        items = out
    poly = {e: nonzero for e, vec in items.items()
            if (nonzero := {cid: v for cid, v in vec.items() if v})}
    # summed over the chains, the polynomial is the constant 1
    mass = {e: sum(vec.values()) for e, vec in poly.items()}
    assert {e: m for e, m in mass.items() if m} == {0: common}, "leaf mass must be 1"
    return poly


def _narrow(active: list, a: int, s: int, k: int) -> list:
    """The groups of ``active`` that reach leaf ``s`` of parameter ``a``'s
    depth-``k`` diagram, each factor times its count of ways there."""
    lo, hi = 2 * a * _W, (2 * a + 1) * _W
    out = []
    for f, sig, acc in active:
        d, r = sig >> lo & _MASK, sig >> hi & _MASK
        if r <= s <= r + k - d:
            out.append((f * comb(k - d, s - r), sig, acc))
    return out


def _leaf(active: list) -> dict[int, int]:
    vec: dict[int, int] = {}
    for f, _, acc in active:
        for cid, v in acc.items():
            vec[cid] = vec.get(cid, 0) + f * v
    return vec


def _first_difference(k: int, ell: int, left: tuple, right: tuple) -> tuple:
    """The first multi-index of the depth-``k`` grid over ``ell``
    parameters, in ``itertools.product`` order, where the two terms' leaf
    vectors (by chain id) are not proportional, and both vectors.

    ``left`` and ``right`` are ``(common, groups)`` as ``_LeafWalk.groups``
    gives them.  Both leaves sum to their term's ``common`` times the same
    binomials, so they are proportional exactly when each, multiplied by
    the other term's ``common``, is the other.  Leaves are visited depth
    first, one parameter per level, and a level keeps only the groups that
    reach its prefix, so a leaf costs the groups that reach it, as in
    ``forms``."""
    (ct, gt), (cu, gu) = left, right
    stack = [((), [(1, *g) for g in gt], [(1, *g) for g in gu])]
    while stack:
        index, at, au = stack.pop()
        a = len(index)
        if a < ell:
            stack += [(index + (s,), _narrow(at, a, s, k), _narrow(au, a, s, k))
                      for s in range(k, -1, -1)]
            continue
        vt, vu = _leaf(at), _leaf(au)
        if any(vt.get(cid, 0) * cu != vu.get(cid, 0) * ct for cid in vt.keys() | vu.keys()):
            return index, vt, vu
    raise AssertionError("polynomials differ but every leaf agrees")


def equal(ctx: Context, t: Term, u: Term) -> Verdict:
    """Decide derivable (equivalently, denotational) equality of two terms."""
    walk = _LeafWalk(ctx, (t, u))
    k, n = walk.k_min, walk.n_min
    ids, (left, right) = walk.groups(n)
    (ct, gt), (cu, gu) = left, right
    ell = len(ctx.params)
    pt, pu = _power(ct, gt, ell), _power(cu, gu, ell)
    if ({e: {cid: v * cu for cid, v in vec.items()} for e, vec in pt.items()}
            == {e: {cid: v * ct for cid, v in vec.items()} for e, vec in pu.items()}):
        return Verdict(True, k, n, walk)
    index, vt, vu = _first_difference(k, ell, left, right)
    gl, gr = gcd(*vt.values()), gcd(*vu.values())
    for column, chain in enumerate(sorted([Chain(*key) for key in ids], key=Chain.sort_key)):
        cid = ids[chain.binders, chain.var, chain.argmap]
        a, b = vt.get(cid, 0) // gl, vu.get(cid, 0) // gr
        if a != b:
            return Verdict(False, k, n, walk, Witness(index, column, chain, a, b))
    raise AssertionError("leaf vectors differ but their primitive vectors agree")
