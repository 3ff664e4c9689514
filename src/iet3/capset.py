"""Cut-and-project sequences {a + b*eta : a, b integers, a - b*eps in window}.

With eps in (0,1), eta > 0 and window length l in (max(1-eps, eps), 1],
consecutive gaps take the three values 1+eta, eta and 1+2*eta, and the
successor of a point is decided by where its star image a - b*eps sits in
the window.  The star images of consecutive points are consecutive
iterates of the three-interval exchange on the window, which is what ties
these sets to orbit coding: `generate` turns the letters of
`iet.OrbitCoder` into gaps; `lattice_filter` is the independent reference.

Points are kept as integer pairs (a, b); the representation is unique
because eta is irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DangerousEta, InvalidWindow
from .iet import IetSpec, OrbitCoder
from .qfield import QuadNum

__all__ = ["CapSetConfig", "star", "point_value", "generate", "gap_class",
           "lattice_filter", "check_selfsimilarity"]

Pair = Tuple[int, int]


@dataclass(frozen=True)
class CapSetConfig:
    eps: QuadNum
    window_start: QuadNum  # c
    window_len: QuadNum  # l
    eta: Optional[QuadNum] = None  # defaults to -eps'

    def __post_init__(self):
        if self.eta is None:
            object.__setattr__(self, "eta", -self.eps.conjugate())

    @property
    def window_end(self) -> QuadNum:
        return self.window_start + self.window_len

    def validate(self):
        eps, eta, l = self.eps, self.eta, self.window_len
        zero, one = eps.field.zero(), eps.field.one()
        if eps.q == 0 or eta.q == 0:
            raise ValueError("eps and eta must be irrational")
        if not (zero < eps < one):
            raise ValueError(f"eps = {eps} not in (0, 1)")
        if eta.sign() <= 0:
            if eta > -1:
                raise DangerousEta(f"eta = {eta} in (-1, 0)")
            raise ValueError(f"eta = {eta} must be positive")
        if eta == -eps:
            raise ValueError("eta = -eps degenerates the projection")
        if not (l <= one and l > eps and l > one - eps):
            raise ValueError(f"l = {l} violates 1 >= l > max(1-eps, eps)")


def star(cfg: CapSetConfig, p: Pair) -> QuadNum:
    """Star image a - b*eps of the point a + b*eta."""
    a, b = p
    return cfg.eps.field.rational(a) - b * cfg.eps


def point_value(cfg: CapSetConfig, p: Pair) -> QuadNum:
    a, b = p
    return cfg.eta.field.rational(a) + b * cfg.eta


# the gap from a point to the next one, by the exchange letter of its star
# image: 1+eta, 1+2*eta or eta
_GAP = {"A": (1, 1), "B": (1, 2), "C": (0, 1)}


def _scan(letters: str, sign: int) -> List[Pair]:
    """The points reached from 0 by adding (sign 1) or subtracting (sign -1)
    the gap of each letter in turn."""
    p, out = (0, 0), []
    for letter in letters:
        p = (p[0] + sign * _GAP[letter][0], p[1] + sign * _GAP[letter][1])
        out.append(p)
    return out


def generate(cfg: CapSetConfig, count: int, back: int = 0) -> List[Pair]:
    """Points s_-back, ..., s_0 = 0, ..., s_count in increasing order."""
    cfg.validate()
    zero = cfg.eps.field.zero()
    if not (cfg.window_start <= zero < cfg.window_end):
        raise InvalidWindow("0 must lie in the acceptance window")
    if count < 0 or back < 0:
        raise ValueError("count and back must be nonnegative")
    # not make_spec: validate() also admits l = 1, where B never occurs
    coder = OrbitCoder(IetSpec(cfg.eps, cfg.window_len, cfg.window_start))
    fwd = _scan(coder.letters(count)[0], 1)
    bwd = _scan(coder.letters(back, back=True)[0], -1)
    return bwd[::-1] + [(0, 0)] + fwd


def gap_class(p: Pair, q: Pair) -> str:
    """Label the gap q - p of consecutive points: one of D1, D2, D1+D2."""
    d = (q[0] - p[0], q[1] - p[1])
    return {(1, 1): "D1", (0, 1): "D2", (1, 2): "D1+D2"}.get(d, "other")


def lattice_filter(cfg: CapSetConfig, b_min: int, b_max: int) -> List[Pair]:
    """All points with b in [b_min, b_max], by direct membership testing.

    Brute force straight from the definition; serves as the independent
    oracle for the successor-rule generator and works for any window.
    """
    pts = []
    for b in range(b_min, b_max + 1):
        lo = cfg.window_start + b * cfg.eps
        a = lo.floor()
        if a < lo:
            a += 1
        while cfg.eps.field.rational(a) < lo + cfg.window_len:
            pts.append((a, b))
            a += 1
    pts.sort(key=lambda p: point_value(cfg, p))
    return pts


def check_selfsimilarity(cfg: CapSetConfig, lam: QuadNum, count: int) -> bool:
    """Does multiplying the set by lam give the set with window scaled by lam'?

    Requires eta = -eps', so that multiplication by lam acts on points
    through the Galois conjugate of their star images.
    """
    cfg.validate()
    if cfg.eta != -cfg.eps.conjugate():
        raise ValueError("self-similarity check needs eta = -eps'")
    conj = lam.conjugate()
    scaled_cfg = CapSetConfig(
        cfg.eps, conj * cfg.window_start, conj * cfg.window_len, cfg.eta
    )

    scaled_pts = []
    for p in generate(cfg, count, back=count):
        z = conj * star(cfg, p)
        if not z.in_z_eps():
            return False
        # lam * (a + b*eta) has star image z = p + q*e, i.e. pair (p, -q)
        scaled_pts.append((z.p, -z.q))

    # the scaled window is too short for the successor rule, so compare
    # against a direct lattice enumeration trimmed to the covered range
    bs = [p[1] for p in scaled_pts]
    other = lattice_filter(scaled_cfg, min(bs) - 5, max(bs) + 5)
    lo = point_value(cfg, scaled_pts[0])
    hi = point_value(cfg, scaled_pts[-1])
    other = [p for p in other if lo <= point_value(scaled_cfg, p) <= hi]
    return scaled_pts == other
