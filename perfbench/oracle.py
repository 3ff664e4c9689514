"""Independent checks of the library's witnesses.

`Exchange` codes the orbit of 0 under the normalized three-interval
exchange with its own exact integer arithmetic: it reads only the
rational coordinates of eps, l and c and the field's equation, and shares
no code with the library's orbit coder or verifiers.  `check_images` uses
it to confirm a substitution against the orbit word; unlike the library's
`verify_fixed_point`, it always compares at least the first whole image on
each side of 0, however long the images are.
"""

import hashlib
import math
from itertools import islice


def _sign(n):
    return (n > 0) - (n < 0)


class Exchange:
    """The exchange of [c, c+l) on points (x0 + x1*e)/L with integer x0, x1."""

    def __init__(self, spec):
        f = spec.field
        self.A, self.B, self.D, self.branch = f.A, f.B, f.disc, f.branch
        coords = [spec.eps.a, spec.eps.b, spec.l.a, spec.l.b, spec.c.a, spec.c.b]
        self.L = math.lcm(*(q.denominator for q in coords))
        eps = self._scaled(spec.eps)
        l = self._scaled(spec.l)
        c = self._scaled(spec.c)
        one = (self.L, 0)
        end = _add(c, l)
        # forward cuts: c + l - 1 + eps and c + eps; backward cuts: c + l - eps
        # and c + 1 - eps (the images tile the domain as T(I3), T(I2), T(I1))
        self.cuts = (_sub(_add(end, eps), one), _add(c, eps))
        self.back_cuts = (_sub(end, eps), _sub(_add(c, one), eps))
        self.shifts = (_sub(one, eps), _sub(_sub(one, eps), eps), (-eps[0], -eps[1]))

    def _scaled(self, x):
        a, b = x.a * self.L, x.b * self.L
        return (a.numerator, b.numerator)

    def _below(self, x, y):
        """x < y for scaled points, decided exactly."""
        d0, d1 = x[0] - y[0], x[1] - y[1]
        # 2A(d0 + d1*e) = (2A d0 - B d1) + branch*d1*sqrt(D), with A > 0
        p, q = 2 * self.A * d0 - self.B * d1, self.branch * d1
        s = _sign(p) if p * p > q * q * self.D else _sign(q)
        return s < 0

    def forward(self):
        """u_0, u_1, ..."""
        x = (0, 0)
        while True:
            i = 0 if self._below(x, self.cuts[0]) else 1 if self._below(x, self.cuts[1]) else 2
            yield "ABC"[i]
            x = _add(x, self.shifts[i])

    def backward(self):
        """u_-1, u_-2, ..."""
        x = (0, 0)
        while True:
            if self._below(x, self.back_cuts[0]):
                i = 2
            elif self._below(x, self.back_cuts[1]):
                i = 1
            else:
                i = 0
            x = _sub(x, self.shifts[i])
            yield "ABC"[i]


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _stack(word, images):
    """Letters covered by whole images images[word[0]], images[word[1]], ...
    that fit in `word` and match it; None at the first mismatch."""
    pos = 0
    for ch in word:
        img = images[ch]
        if pos + len(img) > len(word):
            return pos
        if word[pos:pos + len(img)] != img:
            return None
        pos += len(img)
    return pos


def check_images(spec, images, min_letters=10**4):
    """Compare the images against the orbit word on both sides of 0.

    Each side covers at least its first whole image and otherwise whole
    images up to `min_letters` letters.  Returns the letters covered
    (forward, backward), or None if some image disagrees with the word.
    """
    ex = Exchange(spec)
    covered = []
    for letters, imgs in ((ex.forward(), images),
                          (ex.backward(), {a: w[::-1] for a, w in images.items()})):
        first = next(letters)
        n = max(len(imgs[first]), min_letters)
        word = first + "".join(islice(letters, n - 1))
        got = _stack(word, imgs)
        if got is None or got < len(imgs[first]):
            return None
        covered.append(got)
    return tuple(covered)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def image_digests(images):
    return {a: digest(w) for a, w in sorted(images.items())}
