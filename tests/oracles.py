"""References that only the tests read: the exchange's subintervals, the
exact sign of a frame pair, the orbit points of a coder's text and the
orbit as a stream of points, Sturmian words by integer rounding, the
projection identities checked letter by letter, the ancestor criterion
of the paper's lemma, the exact spectrum of an incidence matrix, the
nested induction with every comparison exact, and the block cut letter
by letter.  The library's decision and its proof
need none of them.
"""

from functools import reduce
from itertools import accumulate
from math import isqrt, lcm

from iet3 import OrbitCoder, SturmianSpec, sigma, step, sturmian_word
from iet3.errors import NoSquareRoot, OutOfDomain, StepBudgetExceeded
from iet3.qfield import sqrt_in_field

STEP_BUDGET = 10**6  # cap on the steps of an ancestor search


def subintervals(spec):
    """I_A, I_B, I_C of the exchange, as (start, end) pairs."""
    return (spec.c, spec.d1), (spec.d1, spec.d2), (spec.d2, spec.end)


def frame_sign(frame, p):
    """Exact sign of the number with pair p of `frame`."""
    return frame.cmp(p, (0, 0))


def points(coder, text, start=(0, 0), back=False):
    """The orbit point of each letter of `text`, read from `start` as
    `coder.letters` reads it: T^k(start) for u_k, or T^-k-1(start) for
    u_-k-1, each the running sum of the letters' moves."""
    sign = -1 if back else 1
    moves = {a: (sign * s0, sign * s1) for a, (s0, s1) in zip("ABC", coder.shift)}
    pts = list(accumulate((moves[a] for a in text), lambda p, m: (p[0] + m[0], p[1] + m[1]),
                          initial=start))
    return pts[1:] if back else pts[:-1]


def orbit_points(coder, start=(0, 0), back=False):
    """(point, index of its letter) of the orbit of `start`, read in chunks
    of doubling length: T^n(start) for n = 0, 1, ..., or with back=True
    T^-n(start) for n = 1, 2, ..."""
    n = 64
    while True:
        text, end = coder.letters(n, start, back)
        yield from zip(points(coder, text, start, back), map("ABC".index, text))
        start, n = end, 2 * n


def rounding_word(alpha, x0, n, rounding="floor"):
    """u_k = round((k+1)*alpha + x0) - round(k*alpha + x0) for k < n, with
    every rounding done in integers: q*(a + b*e) = (P + Q*sqrt(D)) / (2Aq)
    for P = 2A*qa - B*qb and Q = branch*qb, and as Q*sqrt(D) is 0 or
    irrational, floor((P + Q*sqrt(D)) / m) = floor((P + floor(Q*sqrt(D))) / m)."""
    f = alpha.field
    q = lcm(alpha.a.denominator, alpha.b.denominator, x0.a.denominator, x0.b.denominator)

    def coords(x):
        a, b = int(q * x.a), int(q * x.b)
        return 2 * f.A * a - f.B * b, f.branch * b

    (pa, qa), (px, qx), m = coords(alpha), coords(x0), 2 * f.A * q

    def floor(P, Q):
        r = isqrt(Q * Q * f.disc)
        return (P + (r if Q >= 0 else -r - 1)) // m

    sign = 1 if rounding == "floor" else -1  # ceil(z) = -floor(-z)
    values = [sign * floor(sign * (px + k * pa), sign * (qx + k * qa)) for k in range(n + 1)]
    return "".join(str(values[k + 1] - values[k]) for k in range(n))


def letter_images_match(spec, radius):
    """`sturmian_images_match` over the first `radius` letters: the sigma
    images of `radius` letters of the exchange word, read by
    `OrbitCoder.letters`, against the two Sturmian words read by
    `sturmian_word` (each letter has an image of one or two letters)."""
    word, _ = OrbitCoder(spec).letters(radius)
    alpha = spec.field.one() - spec.eps
    return all(sigma(variant, word)[:radius] == sturmian_word(SturmianSpec(alpha, x0), radius)
               for variant, x0 in (("01", (-spec.c).frac()), ("10", (-spec.l - spec.c).frac())))


def ancestor(spec, j_start, j_end, z0):
    """The point of [j_start, j_end) whose return block contains z0.

    Found by backward iteration; the first backward hit of J is the
    ancestor because the forward path from it to z0 avoids J.
    """
    if not spec.contains(z0):
        raise OutOfDomain(f"{z0} not in [{spec.c}, {spec.end})")
    coder = OrbitCoder(spec, (j_start, j_end, z0))
    fr = coder.frame
    js, je, z = fr.pair(j_start), fr.pair(j_end), fr.pair(z0)
    back = orbit_points(coder, z, back=True)
    for _ in range(STEP_BUDGET):
        if fr.cmp(z, js) >= 0 and fr.cmp(z, je) < 0:
            return fr.point(z)
        z, _letter = next(back)
    raise StepBudgetExceeded(f"no ancestor of {z0} found within {STEP_BUDGET} steps")


def check_lemma_ancestor(spec, unit, z0):
    """Ancestor-equals-scaling criterion against its sign-check form.

    True iff  anc_J(z0) == lam'*z0  agrees with  z0' <= 0 <= (T(z0))'.
    """
    conj = unit.lam_conj
    j_start, j_end = conj * spec.c, conj * spec.end
    left = ancestor(spec, j_start, j_end, z0) == conj * z0
    tz, _ = step(spec, z0)
    right = z0.conjugate().sign() <= 0 and tz.conjugate().sign() >= 0
    return left == right


def eigenvalues(sub, field):
    """Exact eigenvalues of the incidence matrix of `sub` in the field, from
    its characteristic polynomial (Faddeev-LeVerrier): integer roots, then a
    quadratic solved in Q(e).  NoSquareRoot when a root lies outside Q(e)."""
    n = sub.incidence()
    k = len(n)
    if k > 3:
        raise ValueError("exact eigenvalues only for alphabets of size <= 3")
    coeffs, m = [1], [[0] * k for _ in range(k)]  # monic, highest degree first
    for j in range(1, k + 1):  # M_j = N M_(j-1) + c I, next c = -tr(N M_j) / j
        m = [[sum(n[r][t] * m[t][c] for t in range(k)) + coeffs[-1] * (r == c)
              for c in range(k)] for r in range(k)]
        coeffs.append(-sum(n[r][t] * m[t][r] for r in range(k) for t in range(k)) // j)
    roots = []
    while len(coeffs) not in (1, 3):  # divide out integer roots down to a quadratic
        divisors = [d for d in range(1, abs(coeffs[-1]) + 1) if coeffs[-1] % d == 0]
        found = next((x for x in [0] + divisors + [-d for d in divisors]
                      if reduce(lambda v, c: v * x + c, coeffs, 0) == 0), None)
        if found is None:
            raise NoSquareRoot("cubic with no rational root; eigenvalue outside Q(e)")
        roots.append(field.rational(found))
        quotient = [1]  # synthetic division by x - found
        for c in coeffs[1:-1]:
            quotient.append(quotient[-1] * found + c)
        coeffs = quotient
    if len(coeffs) == 3:  # x^2 + px + q
        _, p, q = coeffs
        if (disc := p * p - 4 * q) < 0:
            raise NoSquareRoot("complex eigenvalues")
        root = sqrt_in_field(field, disc)  # raises if outside the field
        roots += [(root - p) / 2, (-root - p) / 2]
    return roots


def exact_induce(cmp, pieces, lo, hi, texts):
    """`iet._induce` with every comparison decided by `cmp`, the exact
    `Frame.cmp`, and the piece of a point found by a scan of the ends."""
    out, todo = [], [(lo, hi, (0, 0), 0, ())]
    while todo:
        x, y, t, n, word = todo.pop()
        while True:
            u, v = (x[0] + t[0], x[1] + t[1]), (y[0] + t[0], y[1] + t[1])
            if word and cmp(u, hi) < 0 and cmp(v, lo) > 0:  # [u, v) meets the window
                if cmp(u, lo) < 0:
                    cut = lo
                elif cmp(v, hi) > 0:
                    cut = hi
                else:
                    break
            else:
                for j, (_, cut, s, k, _) in enumerate(pieces):
                    if cmp(u, cut) < 0:
                        break
                else:
                    raise AssertionError("a part left the window of the pieces")
                if cmp(v, cut) <= 0:
                    t, n, word = (t[0] + s[0], t[1] + s[1]), n + k, word + (j,)
                    continue
            m = (cut[0] - t[0], cut[1] - t[1])
            todo.append((m, y, t, n, word))
            y = m
        if out and out[-1][2:4] == (t, n) and (out[-1][4] == word or "".join(
                texts[i] for i in out[-1][4]) == "".join(texts[i] for i in word)):
            out[-1] = (out[-1][0], y, t, n, word)
        else:
            out.append((x, y, t, n, word))
    return out


def letterwise_block_starts(sub, word, back=False):
    """`Substitution.block_starts` one letter of `word` at a time: each
    block is compared with `word` as far as it reaches."""
    images = {a: w[::-1] for a, w in sub.images.items()} if back else sub.images
    starts, pos = {}, 0
    for letter in word:
        if pos >= len(word):
            break
        img = images[letter]
        if word[pos:pos + len(img)] != img[:len(word) - pos]:
            return None
        starts[pos + len(img) - 1 if back else pos] = letter
        pos += len(img)
    return starts
