"""CSV rows of floats in exactly the bytes of Python's ``"%.17g"``.

The 17 significant digits of ``|v|`` are ``round(|v| * 10**(16 - k))``,
``k = floor(log10|v|)``, the product taken in double-double arithmetic
(Dekker, Numer. Math. 18, 1971).  Python formats, one value at a time, what
that cannot decide, as in Grisu (Loitsch, PLDI 2010): ties within
``_TIE_MARGIN``, a misestimated ``k`` and magnitudes outside ``[_LOW, _HIGH]``.
"""

import functools
from fractions import Fraction

import numpy as np

_LOW, _HIGH = 1e-240, 1e240
_KMIN, _KMAX = -241, 241
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_SLOTS, _SEP = 48, 45


def _mask(form: int, ndig: int) -> bytes:
    """Slots printed but the sign; ``form`` is ``k + 4`` in fixed notation, 21 or 22
    with an exponent of two or three digits."""
    fixed, k = form < 21, form - 4
    nd, point = (max(ndig, k + 1), k) if fixed else (ndig, 0)
    keep = {_SEP, *range(6, 6 + 2 * nd, 2)} | ({7 + 2 * point} if 0 <= point < nd - 1 else set())
    if not fixed:
        keep |= {40, 41, 43, 44} | ({42} if form == 22 else set())
    elif k < 0:
        keep |= set(range(1, 2 - k))  # "0.000"[:1 - k]
    return bytes(s in keep for s in range(_SLOTS))


@functools.cache
def _tables():
    """Per ``k``, ``10**(16 - k)`` as (hi, hi's halves, lo) and the exponent word; the words
    of each first digit and group, each group's digits to its last nonzero; the masks."""
    exact = [Fraction(10) ** (16 - k) for k in range(_KMIN, _KMAX + 1)]
    hi = np.array([float(x) for x in exact])
    high = _SPLIT * hi - (_SPLIT * hi - hi)
    lo = [float(x - Fraction(h)) for x, h in zip(exact, hi.tolist())]

    def words(rows):
        return np.frombuffer(b"".join(rows), np.uint64)

    # Groups in numpy: 10**4 Python strings would raise the peak RSS by 2 MB.
    g = np.arange(10_000, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    group = np.full((10_000, 8), ord("."), np.uint8)
    group[:, ::2] = digits + ord("0")
    last = 4 - np.argmax(digits[:, ::-1] != 0, axis=1)
    sig = ((np.array([1, 5, 9, 13])[:, None] + last) * (g != 0)).astype(np.uint8)
    exponent = words(b"e%+04d,  " % k for k in range(_KMIN, _KMAX + 1))
    lead = words(b"-0.000%d." % d for d in range(10))
    masks = words(_mask(f, nd) for f in range(23) for nd in range(18)).reshape(-1, _SLOTS // 8)
    group = group.view(np.uint64).ravel()
    return np.array([hi, high, hi - high, lo]), exponent, lead, group, sig, masks


def _significand(v: np.ndarray):
    """``(n, k, ok)``: ``|v|``'s 17 significant digits as an integer in ``[10**16, 10**17)``
    and its exponent, where ``ok``; 0 for zero."""
    a = np.abs(v)
    fast = (a >= _LOW) & (a <= _HIGH)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, hh, hl, lo = (row.take(k - _KMIN) for row in _tables()[0])
    # a * 10**(16 - k) = p + r: Dekker's exact two-product a * hi, plus a * lo.
    ah = _SPLIT * a - (_SPLIT * a - a)
    al = a - ah
    p = a * hi
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(r)
    n = p.astype(np.int64) + whole.astype(np.int64)
    ok = fast & (np.abs(r - whole - 0.5) >= _TIE_MARGIN) & (n >= 10**16)
    n += r - whole > 0.5
    ok &= n < 10**17  # rounded up to 10**(k + 1): Python formats it
    return np.where(ok, n, 0), k, ok | (v == 0.0)


def _slots(n: np.ndarray, k: np.ndarray, neg: np.ndarray):
    """Each value's ``_SLOTS`` bytes and the mask of those printed: six words, the sign,
    the "0.000" of ``1e-4 <= |v| < 1`` and the first digit; four groups of four digits,
    a point slot after each digit; the exponent and the separator."""
    _, exponent, lead_word, group_word, sig, masks = _tables()
    lead = n // 10**16
    words = np.empty((n.size, _SLOTS // 8), np.uint64)
    words[:, 0] = lead_word.take(lead)
    words[:, 5] = exponent.take(k - _KMIN)
    ndig = (lead != 0).astype(np.uint8)
    for j, row in enumerate(sig, start=1):
        g = n // 10 ** (16 - 4 * j) % 10**4
        words[:, j] = group_word.take(g)
        np.maximum(ndig, row.take(g), out=ndig)
    form = np.where((k >= -4) & (k < 17), k + 4, 21 + (np.abs(k) >= 100))
    keep = masks.take(form * 18 + ndig, axis=0).view(bool)
    keep[:, 0] = neg
    return words.view(np.uint8), keep


def format_rows(table: np.ndarray) -> bytes:
    """``table`` (rows, columns) as CSV: ``"%.17g"`` per value, commas and newlines."""
    v = np.ascontiguousarray(table, dtype=float).ravel()
    n, k, ok = _significand(v)
    text, keep = _slots(n, k, np.signbit(v))
    text.reshape(*table.shape, _SLOTS)[:, -1, _SEP] = ord("\n")
    text *= keep  # NUL in every slot not printed; "%.17g" prints no NUL
    odd = np.flatnonzero(~ok)
    python = [b"%.17g" % x for x in v[odd].tolist()]
    text[odd, :_SEP] = np.array(python, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
    return text.tobytes().translate(None, b"\0")
