"""Reference alignment for the property tests: the flat (m+1) x (n+1)
cost-table DP that `dysaug.scoring.align` used before the bit-parallel
engine, kept verbatim apart from its name."""

from dysaug.scoring import DELETE, HIT, INSERT, SUBSTITUTE, Alignment


def oracle_align(ref, hyp) -> Alignment:
    """Minimum-edit alignment of two token sequences under unit costs.

    Ties during backtrace prefer hit, then substitute, then delete, then
    insert.
    """
    m, n = len(ref), len(hyp)
    w = n + 1
    # flat (m+1) x (n+1) cost table
    d = list(range(w)) + [0] * (m * w)
    for i in range(1, m + 1):
        d[i * w] = i
    for i in range(1, m + 1):
        ri = ref[i - 1]
        row = i * w
        prev = row - w
        for j in range(1, n + 1):
            if ri == hyp[j - 1]:
                d[row + j] = d[prev + j - 1]
            else:
                best = d[prev + j - 1]
                if d[prev + j] < best:
                    best = d[prev + j]
                if d[row + j - 1] < best:
                    best = d[row + j - 1]
                d[row + j] = best + 1

    i, j = m, n
    ops: list[tuple[str, object, object]] = []
    while i or j:
        cur = d[i * w + j]
        if i and j and ref[i - 1] == hyp[j - 1] and d[(i - 1) * w + j - 1] == cur:
            ops.append((HIT, ref[i - 1], hyp[j - 1]))
            i -= 1
            j -= 1
        elif i and j and d[(i - 1) * w + j - 1] + 1 == cur:
            ops.append((SUBSTITUTE, ref[i - 1], hyp[j - 1]))
            i -= 1
            j -= 1
        elif i and d[(i - 1) * w + j] + 1 == cur:
            ops.append((DELETE, ref[i - 1], None))
            i -= 1
        else:
            ops.append((INSERT, None, hyp[j - 1]))
            j -= 1
    ops.reverse()
    return Alignment(ops=ops, distance=d[m * w + n])
