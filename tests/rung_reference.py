"""The scalar rung candidate builders of the radius ladders before ``sampling.rung_candidates`` replaced them, kept
verbatim: the reference loops of the ladder checkers build their rungs with these, independent of the package."""

import random

from quasieq.geometry import CompactBox


def _clip(v: float, k: int, box: CompactBox) -> float:
    return min(max(v, float(box.lower[k])), float(box.upper[k]))


def _jittered(p: tuple, r: float, box: CompactBox, rng: random.Random) -> tuple:
    """p with every axis moved by a uniform draw from [-r, r], clipped to the box."""
    return tuple(_clip(v + rng.uniform(-r, r), k, box) for k, v in enumerate(p))


def axis_moves(x: tuple, r: float, box: CompactBox) -> list:
    """x with each axis moved by +r, then -r, in axis order, clipped to the box: no draw."""
    return [x[:k] + (_clip(x[k] + s, k, box),) + x[k + 1:] for k in range(len(x)) for s in (r, -r)]


def ball_candidates(x: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """x, its ``axis_moves``, then 2 random points: all within sup-distance r, in the box."""
    return [x] + axis_moves(x, r, box) + [_jittered(x, r, box, rng) for _ in range(2)]


def pair_ball_candidates(xf: tuple, yf: tuple, r: float, box: CompactBox, rng: random.Random) -> list:
    """Pairs near (xf, yf): each axis of either point moved by +-r, then 4 random pairs; in the box."""
    cands = [c for mx, my in zip(axis_moves(xf, r, box), axis_moves(yf, r, box)) for c in ((mx, yf), (xf, my))]
    return cands + [(_jittered(xf, r, box, rng), _jittered(yf, r, box, rng)) for _ in range(4)]
