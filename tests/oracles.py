"""Reference code that the package replaced, kept verbatim for the tests
that compare the new code with it."""

from qpart.series import (
    MINUS,
    PLUS,
    TruncatedSeries,
    pochhammer_finite,
    pochhammer_infinite_starts,
)


def t8_closed_forms(kmax: int, n_terms: int, order: int) -> dict:
    """(k, N) -> the right side T8 compares, from its per-j bracket loop:
    tail(1) times the sum over j < k of +-falling[j] * (2 - q^((N+1)j)
    / (1+q)...(1+q^N)), with k products per (k, N) and one more for
    tail(1)."""
    tails_plus = pochhammer_infinite_starts(PLUS, order)
    full_plus = tails_plus[0]
    # (1 + q)(1 + q^2)...(1 + q^N) and its reciprocal, for N = 0..n_terms
    partials = [TruncatedSeries.one(order)]
    for m in range(1, n_terms + 1):
        partials.append(partials[-1] * pochhammer_finite(PLUS, m, 1, 1, order))
    recips = [s.reciprocal() for s in partials]
    two = TruncatedSeries.one(order).scale(2)
    out = {}
    for k in range(1, kmax + 1):
        # (q^(j+1); q)_(k-j-1) for j < k, the same for every N
        falling = [pochhammer_finite(MINUS, j + 1, 1, k - j - 1, order) for j in range(k)]
        for big_n in range(0, n_terms + 1):
            bracket = TruncatedSeries.zero(order)
            for j in range(k):
                piece = two - recips[big_n].shift((big_n + 1) * j)
                term = falling[j] * piece
                if (j + k - 1) % 2:
                    term = -term
                bracket = bracket + term
            out[k, big_n] = full_plus * bracket
    return out
