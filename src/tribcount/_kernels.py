"""The repetition scan behind the brute-force oracle.

For a root length L, byte j of ``word[L:] XOR word[:n - L]`` is zero iff
``word[j] == word[j + L]``.  A power-fold repetition with root length L ends
at 1-based position e iff the (power - 1) * L bytes before its last root,
j = e - power * L .. e - L - 1, are all zero, so each maximal zero run
[start, end) of at least that length gives the ends start + need + L through
end + L.
"""

from __future__ import annotations

import re

_NONZERO = re.compile(rb"[^\x00]")


def find_repetitions(word: bytes, root_lens, power: int):
    """End positions (1-based) and root lengths of every power-fold
    repetition in ``word`` whose root length is among ``root_lens``.

    Returns two parallel lists of ints sorted by (end, root length).
    """
    if power < 2:
        raise ValueError("repetitions have power >= 2")
    roots = sorted(set(int(x) for x in root_lens))
    if roots and roots[0] < 1:
        raise ValueError("root lengths must be positive")
    n = len(word)
    k = n + 1  # end * k + root sorts as the pair (end, root) does
    keys = []
    for L in roots:
        if power * L > n:
            break
        need = (power - 1) * L
        diff = (int.from_bytes(word[L:], "big")
                ^ int.from_bytes(word[:n - L], "big")).to_bytes(n - L, "big")
        # bytes.find and one precompiled pattern: a regex per length would
        # be compiled afresh in every verify process
        zeros = bytes(need)
        start = diff.find(zeros)
        while start >= 0:
            nonzero = _NONZERO.search(diff, start + need)
            end = nonzero.start() if nonzero else n - L
            keys.extend(range((start + need + L) * k + L, (end + L + 1) * k + L, k))
            start = diff.find(zeros, end)
    keys.sort()
    return [key // k for key in keys], [key % k for key in keys]
