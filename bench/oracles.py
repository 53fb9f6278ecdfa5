"""Reference answers for the benchmark that share no code with permstat.

Closed forms give the marginals of a full table over S_n: Eulerian numbers,
the Mahonian product prod_i [i]_q, rencontres numbers and the uniform first
letter. Direct definitions give every statistic of one long permutation,
and the paper's identities tie the images of phi and psi to the input.
Permutations are tuples of the letters 1..n; positions are 1-based, as in
permstat.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from math import comb, factorial

EULERIAN = ("des", "exc", "lec", "das", "ides")
MAHONIAN = ("inv", "maj", "aid", "mix", "imaj", "rmaj:2", "rmaj:3")
RENCONTRES = ("fix", "pix", "aix")

#: joint distributions the paper proves equal, checked on the table's rows
EQUIDISTRIBUTED = (
    (("fix", "exc", "maj"), ("pix", "lec", "inv")),
    (("fix", "exc", "maj"), ("aix", "des", "aid")),
    (("des", "inv"), ("das", "mix")),
    (("ides", "rmaj:2"), ("exc", "maj")),
)


# -- closed forms over S_n ------------------------------------------------------

def eulerian(n: int) -> Counter:
    """k -> A(n, k), from A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0) + (m - k) * (row[k - 1] if k else 0)
            for k in range(m)
        ]
    return Counter(dict(enumerate(row)))


def mahonian(n: int) -> Counter:
    """k -> coefficient of q^k in [1]_q [2]_q ... [n]_q."""
    poly = [1]
    for i in range(1, n + 1):
        out = [0] * (len(poly) + i - 1)
        for k, c in enumerate(poly):
            for j in range(i):
                out[k + j] += c
        poly = out
    return Counter(dict(enumerate(poly)))


def rencontres(n: int) -> Counter:
    """k -> number of permutations of n letters with exactly k fixed points."""
    derangements = [1, 0]
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[-1] + derangements[-2]))
    return Counter({k: comb(n, k) * derangements[n - k] for k in range(n + 1)})


def expected_marginal(name: str, n: int) -> Counter | None:
    """The closed-form distribution of one statistic over S_n, if it has one."""
    if name in EULERIAN:
        return eulerian(n)
    if name in MAHONIAN:
        return mahonian(n)
    if name in RENCONTRES:
        return rencontres(n)
    if name == "ini":
        return Counter({k: factorial(n - 1) for k in range(1, n + 1)})
    return None


def check_table(text: str, n: int) -> list[str]:
    """Problems found in a `permstat table --format csv` output over S_n
    with every statistic of EULERIAN, MAHONIAN and RENCONTRES plus ini and ai."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    names = header[:-1]
    rows = [tuple(int(x) for x in row) for row in reader if row]
    col = {name: i for i, name in enumerate(names)}
    problems = []
    if sum(row[-1] for row in rows) != factorial(n):
        problems.append(f"counts do not sum to {n}!")

    def dist(cols):
        out = Counter()
        for row in rows:
            out[tuple(row[col[c]] for c in cols)] += row[-1]
        return out

    for name in names:
        want = expected_marginal(name, n)
        if want is not None and dist([name]) != Counter({(k,): c for k, c in want.items()}):
            problems.append(f"{name} marginal differs from its closed form")
    if any(row[col["ai"]] != row[col["aid"]] - row[col["des"]] for row in rows):
        problems.append("ai != aid - des on some row")
    for left, right in EQUIDISTRIBUTED:
        if dist(left) != dist(right):
            problems.append(f"({','.join(left)}) and ({','.join(right)}) are not equidistributed")
    return problems


# -- statistics of one permutation, by definition -------------------------------

def inversions(w) -> int:
    """Inversion count by merge sort."""

    def sort(a):
        if len(a) <= 1:
            return a, 0
        mid = len(a) // 2
        left, x = sort(a[:mid])
        right, y = sort(a[mid:])
        merged, i, j, count = [], 0, 0, x + y
        while i < len(left) and j < len(right):
            if left[i] < right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
                count += len(left) - i
        return merged + left[i:] + right[j:], count

    return sort(list(w))[1]


def descents(w) -> list[int]:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def positions(p) -> list[int]:
    """pos[v] = 1-based position of letter v; pos[0] is unused."""
    pos = [0] * (len(p) + 1)
    for i, x in enumerate(p, start=1):
        pos[x] = i
    return pos


def admissible(w) -> int:
    """Inversions (i, j) with w(j) < w(j+1), or with a letter smaller than
    w(j) strictly between them, i.e. i < L(j) for L(j) the nearest position
    left of j holding a smaller letter."""
    total, stack = 0, []
    for j, x in enumerate(w):
        while stack and w[stack[-1]] > x:
            stack.pop()
        upto = j if j + 1 < len(w) and x < w[j + 1] else (stack[-1] if stack else 0)
        stack.append(j)
        total += sum(1 for i in range(upto) if w[i] > x)
    return total


def hook_lec_pix(w) -> tuple[int, int]:
    """(lec, pix): peel hooks from the rightmost descent leftwards; lec sums
    their inversions, pix is the length of what is left."""
    lec, end, d = 0, len(w), len(w) - 1
    while d >= 1:
        if w[d - 1] > w[d]:
            lec += sum(1 for x in w[d:end] if x < w[d - 1])
            end = d - 1
            d = end - 1
        else:
            d -= 1
    return lec, end


def aix(w) -> int:
    total, w = 0, list(w)
    while w:
        i = w.index(min(w))
        if i == 0:
            total += 1
            w = w[1:]
        elif i == len(w) - 1:
            break
        else:
            w = w[:i]
    return total


def mix(p) -> int:
    count, best = 0, 0
    for i, x in enumerate(p):
        for y in p[i + 1:]:
            if (x > y and x > best) or (x < y < best):
                count += 1
        best = max(best, x)
    return count


def das(p) -> int:
    count, best = 0, 0
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            count += p[i - 1] > best
        else:
            count += best > p[i]
        best = max(best, p[i - 1])
    return count


def rmaj(p, r: int) -> int:
    """Descents of height >= r summed, plus inversions of height < r."""
    pos = positions(p)
    major = sum(i for i in descents(p) if p[i - 1] - p[i] >= r)
    low = sum(
        1 for v in range(1, len(p) + 1) for u in range(max(1, v - r + 1), v) if pos[v] < pos[u]
    )
    return major + low


def statistics(p) -> dict[str, int]:
    """Every registry statistic plus rmaj:2 and rmaj:3 of a permutation of 1..n."""
    ds = descents(p)
    ipos = positions(p)[1:]
    ides = descents(ipos)
    ai = admissible(p)
    lec, pix = hook_lec_pix(p)
    return {
        "des": len(ds),
        "exc": sum(1 for i, x in enumerate(p, start=1) if x > i),
        "inv": inversions(p),
        "maj": sum(ds),
        "fix": sum(1 for i, x in enumerate(p, start=1) if x == i),
        "imaj": sum(ides),
        "ides": len(ides),
        "ini": p[0],
        "ai": ai,
        "aid": ai + len(ds),
        "lec": lec,
        "pix": pix,
        "aix": aix(p),
        "mix": mix(p),
        "das": das(p),
        "rmaj:2": rmaj(p, 2),
        "rmaj:3": rmaj(p, 3),
    }


def decreasing_closed_forms(n: int) -> dict[str, int]:
    """Statistics of n n-1 ... 1 that follow from its shape alone."""
    return {
        "inv": n * (n - 1) // 2,
        "maj": n * (n - 1) // 2,
        "des": n - 1,
        "aid": n - 1,
        "ai": 0,
        "lec": n // 2,
        "pix": n % 2,
    }


def contains_321(w) -> bool:
    """Some letter has a larger letter before it and a smaller one after it."""
    suffix_min = [0] * len(w)
    low = float("inf")
    for i in range(len(w) - 1, -1, -1):
        suffix_min[i] = low
        low = min(low, w[i])
    best = 0
    for i, x in enumerate(w):
        if best > x > suffix_min[i]:
            return True
        best = max(best, x)
    return False


def contains_312(w) -> bool:
    """Some w(j) has a larger letter before it and, after it, a letter
    strictly between w(j) and the largest earlier letter."""
    best = 0
    for j, x in enumerate(w):
        if best > x and any(x < y < best for y in w[j + 1:]):
            return True
        best = max(best, x)
    return False


def lr_maxima(w) -> list[int]:
    out, best = [], 0
    for x in w:
        if x > best:
            out.append(x)
            best = x
    return out


def phi_identity(s: dict, t: dict) -> bool:
    """(ini, aix, des, aid) of phi(p) equal (ini, pix, lec, inv) of p, given
    s = statistics(p) and t = statistics(phi(p))."""
    return (t["ini"], t["aix"], t["des"], t["aid"]) == (s["ini"], s["pix"], s["lec"], s["inv"])


def psi_identity(p, image, s: dict, t: dict) -> bool:
    """psi fixes the left-to-right maxima, carries (des, inv) to (das, mix)
    and swaps mix with inv, given s = statistics(p) and t = statistics(image)."""
    return (
        lr_maxima(image) == lr_maxima(p)
        and (t["das"], t["mix"]) == (s["des"], s["inv"])
        and t["inv"] == s["mix"]
    )
