"""CSV rows of floats in exactly the bytes of Python's ``"%.17g"``.

The 17 significant digits of ``|v|`` are ``round(|v| * 10**(16 - k))``,
``k = floor(log10|v|)``, the product taken in double-double arithmetic
(Dekker, Numer. Math. 18, 1971).  Python formats, one value at a time, what
that cannot decide, as in Grisu (Loitsch, PLDI 2010): ties within
``_TIE_MARGIN``, a misestimated ``k`` and magnitudes outside ``[_LOW, _HIGH]``.
Each value fills a 32-byte slot: ``-0.000D.`` (the sign, the "0.000" of ``-4 <= k < 0``,
the first digit and its point), 16 digits, a spare byte, ``e+XXX`` and the separator.
With ``1 <= k <= 15`` (fixed notation) the point falls among the 16 digits: those slots
alone move their bytes from there up one.  A mask zeroes every byte not printed.
"""

import functools
from fractions import Fraction

import numpy as np

_LOW, _HIGH = 1e-240, 1e240
_KMAX = 241
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_SLOT, _SEP = 32, 30


def _printed(form: int, ndig: int) -> set:
    """Bytes printed but the sign, after the shift; ``form`` is ``k + 4`` in fixed
    notation, 21 or 22 with an exponent of two or three digits."""
    fixed, k = form < 21, form - 4
    nd, point = (max(ndig, k + 1), k) if fixed else (ndig, 0)
    keep = {6, *range(8, 7 + nd), _SEP}
    if not fixed:
        keep |= {25, 26, 28, 29} | ({27} if form == 22 else set())
    elif k < 0:
        keep |= set(range(1, 2 - k))  # "0.000"[:1 - k]
    keep = {s + (0 < point < 16 and s >= 8 + point) for s in keep}  # the tail shift
    return keep | ({7 + point + (point > 0)} if 0 <= point < nd - 1 else set())


@functools.cache
def _tables():
    """Per row ``k + _KMAX``: ``10**(16 - k)`` as (hi, hi's halves, lo), the exponent word and
    the first mask row of ``k``'s notation.  The words of each first digit and group of four;
    twice the digits to each group's last nonzero one (at least 1), by group; the masks, by
    notation, doubled digit count and sign; per ``k`` up to 15, the bytes the shift moves."""
    ks = range(-_KMAX, _KMAX + 1)
    exact = [Fraction(10) ** (16 - k) for k in ks]
    hi = np.array([float(x) for x in exact])
    high = _SPLIT * hi - (_SPLIT * hi - hi)
    lo = [float(x - Fraction(h)) for x, h in zip(exact, hi.tolist())]

    def words(rows):
        return np.frombuffer(b"".join(rows), np.uint64)

    exponent = words(b"\0e%+04d,\0" % k for k in ks)
    form = np.array([k + 4 if -4 <= k < 17 else 21 + (abs(k) >= 100) for k in ks])
    lead = words(b"-0.000%d." % d for d in range(10))
    # Groups in numpy: 10**4 Python strings would raise the peak RSS by 2 MB.
    g = np.arange(10_000, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    group = (digits + ord("0")).view(np.uint32).ravel()
    last = 4 - np.argmax(digits[:, ::-1] != 0, axis=1).astype(np.uint8)
    sig = 2 * np.where(g != 0, np.arange(1, 17, 4, dtype=np.uint8)[:, None] + last, 1)
    masks = words(
        bytes(255 * (s in keep or s == 0 and neg) for s in range(_SLOT))
        for keep in (_printed(f, nd) for f in range(23) for nd in range(18))
        for neg in (False, True)
    ).reshape(-1, _SLOT // 8)
    moved = (255 * (np.arange(_SLOT) >= np.arange(8, 24)[:, None])).astype(np.uint8).view(np.uint64)
    return np.array([hi, high, hi - high, lo]), exponent, 36 * form, lead, group, sig, masks, moved


def _significand(v: np.ndarray):
    """``(n, k, ok)``: ``|v|``'s 17 significant digits as an integer in ``[10**16, 10**17)``
    and its exponent plus ``_KMAX``, where ``ok``; 0 for zero."""
    a = np.abs(v)
    fast = (a >= _LOW) & (a <= _HIGH)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp) + _KMAX
    hi, hh, hl, lo = (row.take(k) for row in _tables()[0])
    # a * 10**(16 - k) = p + r: Dekker's exact two-product a * hi, plus a * lo.
    ah = _SPLIT * a - (_SPLIT * a - a)
    al = a - ah
    p = a * hi
    r = ah * hh - p
    for x, y in ((ah, hl), (al, hh), (al, hl), (a, lo)):
        r += np.multiply(x, y, out=hi)
    whole = np.floor(r)
    n = p.astype(np.int64) + whole.astype(np.int64)
    r -= whole
    ok = fast & (n >= 10**16) & (np.abs(r - 0.5) >= _TIE_MARGIN)
    n += r > 0.5
    ok &= n < 10**17  # rounded up to 10**(k + 1): Python formats it
    n *= ok
    return n, k, ok | (v == 0.0)


def format_rows(table: np.ndarray) -> bytes:
    """``table`` (rows, columns) as CSV: ``"%.17g"`` per value, commas and newlines."""
    # Packed once _filled's arrays are freed, so malloc reuses its heap instead of trimming it.
    return _filled(table).translate(None, b"\0")


def _filled(table: np.ndarray) -> bytes:
    """Each value's slot, NUL in every byte not printed (``"%.17g"`` prints no NUL)."""
    v = np.ascontiguousarray(table, dtype=float).ravel()
    n, k, ok = _significand(v)
    _, exponent, form, lead, group, sig, masks, moved = _tables()
    # n = first 10**16 + high 10**8 + low; integer division, unlike divmod, is vectorised.
    top = n // 10**8
    low, top = (n - top * 10**8).astype(np.int32), top.astype(np.int32)
    first = top // 10**8
    words = np.empty((v.size, _SLOT // 8), np.uint64)
    words[:, 0], words[:, 3] = lead.take(first), exponent.take(k)
    quads, ndig = words.view(np.uint32), np.zeros(v.size, np.uint8)
    for j, half in enumerate((top - first * 10**8, low)):
        high = half // 10**4
        for i, part in enumerate((high, half - high * 10**4)):
            part = part.astype(np.intp)  # once for both takes
            quads[:, 2 + 2 * j + i] = group.take(part)
            np.maximum(ndig, sig[2 * j + i].take(part), out=ndig)
    text = words.view(np.uint8)
    text.reshape(*table.shape, _SLOT)[:, -1, _SEP] = ord("\n")
    shifted = np.flatnonzero((k > _KMAX) & (k < _KMAX + 16))
    if shifted.size:
        slots = words.take(shifted, axis=0)
        carry = slots << 8  # each byte into the next; word 0 is all kept
        carry.reshape(-1)[1:] |= slots.reshape(-1)[:-1] >> 56
        point = k[shifted] - _KMAX
        slots ^= (slots ^ carry) & moved.take(point, axis=0)  # carry from the point on
        np.put(words.view("V32"), shifted, slots.view("V32"))
        np.put(text, _SLOT * shifted + point + 8, ord("."))
    words &= masks.take(form.take(k) + ndig + np.signbit(v), axis=0)
    odd = np.flatnonzero(~ok)
    python = [b"%.17g" % x for x in v[odd].tolist()]
    text[odd, :_SEP] = np.array(python, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
    return text.tobytes()
