"""Reference results computed apart from the program.

Each function derives an expected value from first principles, on the
benchmark's own tuple terms (see ``gen``), so a wrong answer from the
program cannot also be a wrong expectation.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt


def urn_distribution(t) -> dict[str, Fraction]:
    """Exact leaf distribution of a ground term over arity-0 variables.

    The Pólya-urn recursion: a binder ``nu[i,j]p`` starts an urn with i
    true and j false balls; ``pch[p]`` draws from it, goes left with
    probability true/(true+false) and puts the ball back with a duplicate;
    ``rch[i,j]`` goes left with probability i/(i+j).
    """
    out: dict[str, Fraction] = {}
    urns: dict[str, list[int]] = {}

    def go(node, mass: Fraction) -> None:
        kind = node[0]
        if kind == "v":
            if node[2]:
                raise ValueError(f"{node[1]} has arguments; the urn needs arity 0")
            out[node[1]] = out.get(node[1], Fraction(0)) + mass
        elif kind == "r":
            total = node[1] + node[2]
            if node[1]:
                go(node[3], mass * Fraction(node[1], total))
            if node[2]:
                go(node[4], mass * Fraction(node[2], total))
        elif kind == "p":
            urn = urns[node[1]]
            yes, no = urn
            urn[0] += 1
            go(node[2], mass * Fraction(yes, yes + no))
            urn[0] -= 1
            urn[1] += 1
            go(node[3], mass * Fraction(no, yes + no))
            urn[1] -= 1
        else:
            saved = urns.get(node[3])
            urns[node[3]] = [node[1], node[2]]
            go(node[4], mass)
            if saved is None:
                del urns[node[3]]
            else:
                urns[node[3]] = saved

    go(t, Fraction(1))
    return {v: m for v, m in out.items() if m}


def ratio_chain_distribution(depth: int) -> dict[str, Fraction]:
    """Leaf masses of the ``depth``-deep ``rch[1,2](z, .)`` chain: each
    level exits to ``z`` with probability 1/3, so ``y`` keeps (2/3)^depth,
    which is the closed form ``rch[2^d, 3^d-2^d](y, z)``."""
    y = Fraction(2 ** depth, 3 ** depth)
    return {"y": y, "z": 1 - y}


def rising(x: int, m: int) -> int:
    out = 1
    for s in range(m):
        out *= x + s
    return out


def beta_power_moment(i: int, j: int, m: int) -> Fraction:
    """E[p^m] for p ~ Beta(i, j), from rising factorials: the value of
    ``nu[i,j]p.x(p,...,p)`` (m arguments) on ``f_x = r1*...*rm``."""
    return Fraction(rising(i, m), rising(i + j, m))


def binomial_ok(count: int, trials: int, p: Fraction, sigmas: float = 5.0) -> bool:
    """``count`` successes in ``trials`` lie within ``sigmas`` standard
    deviations of the binomial mean at probability ``p``."""
    mean = trials * p
    sd = sqrt(trials * p * (1 - p))
    return abs(count - mean) <= sigmas * sd


def mismatch(what: str, got, want) -> str | None:
    """A one-line failure message, or None when the values agree."""
    return None if got == want else f"{what}: got {got!r}, want {want!r}"
