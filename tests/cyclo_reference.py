"""Reference for the basis of ``Z[omega]``, q = 2**h.

An element is summed one residue at a time: a histogram of exponents mod q,
folded into the q/2 coordinates by ``omega^(j + q/2) = -omega^j``.
``test_cyclo.py`` checks ``CycloValue`` against it, and
``construct_reference.py`` builds the predicted autocorrelation rows with it.
"""


def folded(q, counts):
    """Coordinates of sum_e counts[e] * w^e, one residue at a time."""
    half = q // 2
    out = [0] * half
    for e, c in enumerate(counts):
        e %= q
        if e < half:
            out[e] += c
        else:
            out[e - half] -= c
    return tuple(out)


def histogram(q, pairs):
    """The length-q residue histogram of (exponent, multiplicity) pairs."""
    counts = [0] * q
    for e, c in pairs:
        counts[e % q] += c
    return counts
