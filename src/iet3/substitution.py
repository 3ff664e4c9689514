"""Substitutions on finite alphabets, incidence matrices, fixed points,
and factor complexity.

Incidence convention: N[i][j] counts occurrences of letter j in the image
of letter i (row per source letter).  Under this convention the column
vector (1-eps, 1-2*eps, -eps) is a right eigenvector of N for the small
conjugate of the scaling unit, which is the identity every synthesis
result is checked against.  The rows are counted in the images at
construction, or carried in by `invariance.return_substitution`.

`Substitution.block_starts` is the one place that cuts an orbit word into
the blocks phi(u_m) aligned at 0; `verify_fixed_point` and
`invariance.check_block_starts` both run on it.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field as dc_field
from itertools import accumulate, takewhile
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UnknownLetter
from .iet import OrbitCoder
from .qfield import QuadNum

__all__ = ["Substitution", "complexity", "count_factors"]


@dataclass(frozen=True)
class Substitution:
    """A morphism given by the image of each letter of `alphabet`.

    Construction validates the images and fixes the incidence rows, so
    `images` must not be mutated.  The rows are counted in the images, or
    given as `counts` by a caller that knows them.  Given rows are trusted
    apart from a check of their shape and that each sums to its image's
    length: the images are not scanned, so a foreign letter goes unseen,
    and untrusted images must be built without `counts`.  `counts` is a
    constructor argument only; read the rows with `incidence()`.
    """

    alphabet: Tuple[str, ...]
    images: Dict[str, str]
    _: KW_ONLY
    counts: InitVar[Optional[Sequence[Sequence[int]]]] = None
    _rows: Tuple[Tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self, counts):
        images = [self.images.get(a) for a in self.alphabet]
        for k, (letter, img) in enumerate(zip(self.alphabet, images)):
            if not (isinstance(letter, str) and len(letter) == 1) or letter in self.alphabet[:k]:
                raise UnknownLetter(f"letter {letter!r} is not one character used once")
            if not (img and isinstance(img, str)):
                raise UnknownLetter(f"no (nonempty) string image for letter {letter!r}")
        if counts is None:
            counts = [tuple(img.count(b) for b in self.alphabet) for img in images]
            for img, row in zip(images, counts):
                if sum(row) != len(img):
                    bad = next(ch for ch in img if ch not in self.alphabet)
                    raise UnknownLetter(f"image letter {bad!r} not in alphabet")
        else:
            k, counts = len(self.alphabet), [tuple(row) for row in counts]
            if len(counts) != k or any(len(row) != k or sum(row) != len(img)
                                       for row, img in zip(counts, images)):
                raise ValueError(f"counts must be {k} rows of {k}, each summing to its image's length")
        object.__setattr__(self, "_rows", tuple(counts))

    # -- word action ----------------------------------------------------------

    def __call__(self, word: str) -> str:
        try:
            return "".join(self.images[ch] for ch in word)
        except KeyError as exc:
            raise UnknownLetter(f"letter {exc.args[0]!r} not in alphabet") from None

    def power(self, n: int) -> "Substitution":
        images = {a: a for a in self.alphabet}
        for _ in range(n):
            images = {a: self(images[a]) for a in self.alphabet}
        return Substitution(self.alphabet, images)

    # -- incidence matrix -----------------------------------------------------

    def incidence(self) -> List[List[int]]:
        """N[i][j] = number of occurrences of alphabet[j] in the image of alphabet[i]."""
        return [list(row) for row in self._rows]

    def is_primitive(self) -> bool:
        """Some power n <= |alphabet|^2 of the incidence matrix is positive."""
        k = len(self.alphabet)
        n = self.incidence()
        m = n
        for _ in range(k * k):
            if all(v > 0 for row in m for v in row):
                return True
            m = _matmul(m, n)
        return False

    def check_eigenvector(self, eps: QuadNum, lam: QuadNum) -> bool:
        """N * (1-eps, 1-2*eps, -eps)^T = lam' * same, exactly: row (a, b, c) gives
        (a+b) - (a+2b+c)*eps, and s + t*eps gives s*lam' + t*lam'*eps, as integers."""
        if len(self.alphabet) != 3:
            return False
        conj = lam.conjugate()
        nums = (eps, conj, conj * eps)
        d = nums[0].d * nums[1].d * nums[2].d
        (e0, e1), (c0, c1), (m0, m1) = ((x.p * (d // x.d), x.q * (d // x.d)) for x in nums)
        return all(((a + b) * d - (a + 2 * b + c) * e0, -(a + 2 * b + c) * e1)
                   == (s * c0 + t * m0, s * c1 + t * m1)
                   for (a, b, c), (s, t) in zip(self._rows, ((1, -1), (1, -2), (0, -1))))

    # -- fixed point ----------------------------------------------------------

    def block_starts(self, word: str, back: bool = False) -> Optional[Dict[int, str]]:
        """Cut `word` = u_0 u_1 ... into the blocks phi(u_0) phi(u_1) ...

        Returns {start of the block of u_m: u_m}, or None when the blocks
        do not spell `word`; the last block is compared as far as `word`
        reaches.  With back=True `word` is u_-1 u_-2 ..., the blocks are the
        mirrored images, and a block starts at its last letter read.
        """
        images = {a: w[::-1] for a, w in self.images.items()} if back else self.images
        n = len(word)
        # the ends of the blocks that start inside `word`, but the last
        ends = list(takewhile(n.__gt__, accumulate(map(len, map(images.__getitem__, word)))))
        letters = word[:len(ends) + 1]
        blocks = "".join(map(images.__getitem__, letters))
        if not blocks.startswith(word):
            return None
        if back:
            return dict(zip([e - 1 for e in ends] + [len(blocks) - 1], letters))
        return dict(zip([0] + ends, letters))

    def verify_fixed_point(self, spec, radius: int) -> bool:
        """Is the orbit word of `spec` the fixed point of phi aligned at 0?

        True iff the blocks of `block_starts` spell u_0 ... u_{radius-1} and
        u_-1 ... u_-radius, so every one of the 2*radius letters is checked.
        """
        if radius < 1:
            raise ValueError("radius must be at least 1")
        coder = OrbitCoder(spec)
        return all(self.block_starts(coder.letters(radius, back=back)[0], back) is not None
                   for back in (False, True))

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        return "\n".join(f"{a} -> {self.images[a]}" for a in self.alphabet)

    @classmethod
    def from_text(cls, text: str) -> "Substitution":
        alphabet, images = [], {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            left, sep, right = line.partition("->")
            if not sep:
                raise ValueError(f"bad substitution line {line!r}")
            alphabet.append(left.strip())
            images[left.strip()] = right.strip()
        return cls(tuple(alphabet), images)


def _matmul(x, y):
    k = len(x)
    return [
        [sum(x[i][t] * y[t][j] for t in range(k)) for j in range(k)] for i in range(k)
    ]


def count_factors(letters: str, n: int) -> int:
    """Number of distinct length-n factors of the given finite window."""
    if n == 0:
        return 1
    return len({letters[i : i + n] for i in range(len(letters) - n + 1)})


def complexity(letters: str, n_max: int) -> List[int]:
    """Factor counts C(0..n_max) of the window (a lower bound for the word)."""
    return [count_factors(letters, n) for n in range(n_max + 1)]
