"""Cut-and-project sets: generation against the brute-force lattice
filter, three-gap structure, the star/orbit correspondence, the mirror
identity, and self-similarity under the scaling unit."""

from fractions import Fraction

import pytest

from iet3 import (CapSetConfig, check_selfsimilarity, gap_class, generate,
                  lattice_filter, make_field, make_spec, parse_quadnum,
                  point_value, star)
from iet3.errors import DangerousEta, InvalidWindow

F2 = make_field(1, 2, -1, 1)


@pytest.fixture(scope="module")
def cfg():
    f = F2
    l = parse_quadnum("1/2+1/2*e", f)
    c = parse_quadnum("-1/2*e", f)
    return CapSetConfig(eps=f.eps(), window_start=c, window_len=l)


class TestConfig:
    def test_default_eta_is_minus_conjugate(self, cfg):
        assert cfg.eta == -cfg.eps.conjugate()
        assert cfg.eta == parse_quadnum("2+e", F2)  # 1 + sqrt2

    def test_dangerous_eta(self, cfg):
        bad = CapSetConfig(eps=cfg.eps, window_start=cfg.window_start,
                           window_len=cfg.window_len,
                           eta=F2.num(0, Fraction(-1, 2)))  # ~ -0.207
        with pytest.raises(DangerousEta):
            bad.validate()

    def test_window_must_contain_zero(self, cfg):
        shifted = CapSetConfig(eps=cfg.eps,
                               window_start=cfg.window_start + 5,
                               window_len=cfg.window_len)
        with pytest.raises(InvalidWindow):
            generate(shifted, 10)


class TestGeneration:
    def test_matches_lattice_filter(self, cfg):
        pts = generate(cfg, 300)
        b_vals = [b for _, b in pts]
        brute = lattice_filter(cfg, min(b_vals), max(b_vals))
        # the generated run is a contiguous slice of the brute-force list
        start = brute.index(pts[0])
        assert brute[start:start + len(pts)] == pts

    @pytest.mark.parametrize("c", ["-1/2", "0", "-1+e/2", "-e"])
    def test_full_window_matches_lattice_filter(self, c):
        """Window length 1 is a valid configuration (the middle gap never
        occurs), though it is not a valid exchange spec."""
        full = CapSetConfig(eps=F2.eps(), window_start=parse_quadnum(c, F2),
                            window_len=F2.one())
        pts = generate(full, 200, back=150)
        assert pts[150] == (0, 0)
        b_vals = [b for _, b in pts]
        brute = lattice_filter(full, min(b_vals), max(b_vals))
        start = brute.index(pts[0])
        assert brute[start:start + len(pts)] == pts
        assert {gap_class(p, q) for p, q in zip(pts, pts[1:])} == {"D1", "D2"}

    def test_star_images_are_orbit_of_zero(self, cfg):
        spec = make_spec(cfg.eps, cfg.window_len, cfg.window_start)
        pts = generate(cfg, 500)
        z = F2.zero()
        origin = pts.index((0, 0))
        from iet3 import step
        for p in pts[origin:origin + 200]:
            assert star(cfg, p) == z
            z, _ = step(spec, z)

    def test_three_gaps(self, cfg):
        pts = generate(cfg, 1000)
        eta = cfg.eta
        allowed = {
            "D1": 1 + eta,          # 2 + sqrt2
            "D2": eta,              # 1 + sqrt2
            "D1+D2": 1 + 2 * eta,   # 3 + 2*sqrt2
        }
        seen = set()
        for p, q in zip(pts, pts[1:]):
            cls = gap_class(p, q)
            assert point_value(cfg, q) - point_value(cfg, p) == allowed[cls]
            seen.add(cls)
        assert seen == set(allowed)

    def test_values_strictly_increasing(self, cfg):
        pts = generate(cfg, 300)
        vals = [point_value(cfg, p) for p in pts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestMirrorIdentity:
    @staticmethod
    def _members(config, b_range):
        """Brute-force membership: pairs (a,b) whose star lands in the
        window, independent of the successor enumeration."""
        out = []
        lo, hi = config.window_start, config.window_end
        for b in range(-b_range, b_range + 1):
            a = (lo + b * config.eps).floor()
            for cand in (a, a + 1):
                if lo <= star(config, (cand, b)) < hi:
                    out.append((cand, b))
        return out

    def test_reflected_parameters_give_the_same_set(self, cfg):
        """The set built from slope eps and marker eta equals the set
        built from slope 1-eps and marker -1-eta, via (a,b) -> (a-b,-b)."""
        mirror = CapSetConfig(eps=F2.one() - cfg.eps,
                              window_start=cfg.window_start,
                              window_len=cfg.window_len,
                              eta=-1 - cfg.eta)
        pts = self._members(cfg, 40)
        assert len(pts) > 30
        lo, hi = mirror.window_start, mirror.window_end
        mapped = [(a - b, -b) for a, b in pts]
        for p, q in zip(pts, mapped):
            assert lo <= star(mirror, q) < hi  # q belongs to the mirror set
            assert point_value(mirror, q) == point_value(cfg, p)  # same real
        # and conversely: every mirror point in the range maps back
        back = [(a + (-b), -b) for a, b in self._members(mirror, 40)]
        assert set(pts) >= {p for p in back if abs(p[1]) <= 40}

    def test_naive_reflection_differs(self, cfg):
        """Using 1-eta instead of -1-eta changes the real values, so the
        printed mirror parameters do not reproduce the set."""
        naive = CapSetConfig(eps=F2.one() - cfg.eps,
                             window_start=cfg.window_start,
                             window_len=cfg.window_len,
                             eta=1 - cfg.eta)
        vals = sorted(point_value(cfg, p) for p in self._members(cfg, 25))
        naive_vals = sorted(point_value(naive, p)
                            for p in self._members(naive, 25))
        assert vals != naive_vals


class TestSelfSimilarity:
    def test_unit_scales_set_into_itself(self, cfg):
        lam = parse_quadnum("5+2*e", F2)  # 3 + 2*sqrt2
        assert check_selfsimilarity(cfg, lam, 300)
        assert check_selfsimilarity(cfg, lam * lam, 200)

    def test_non_unit_fails(self, cfg):
        assert not check_selfsimilarity(cfg, F2.num(2, 0), 200)
