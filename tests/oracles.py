"""Reference implementations used to cross-check the library.

Everything in this module is deliberately naive and self-contained: words are
plain tuples of (generator, sign) pairs and every routine recomputes from
first principles (repeated full scans, exhaustive searches).  Nothing here
imports from cycred, so a bug in the package cannot leak into the values the
tests freeze.
"""

import itertools
import random


def inv(letter):
    g, s = letter
    return (g, -s)


def inverse(word):
    return tuple(inv(l) for l in reversed(word))


def reverse(word):
    return tuple(reversed(word))


def naive_reduce(word):
    """Remove one adjacent inverse pair per full scan until none remain."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == inv(w[i + 1]):
                del w[i:i + 2]
                changed = True
                break
    return tuple(w)


def naive_cyc_reduce(word):
    """Reduce, then strip mutually inverse first/last letters until stable."""
    w = list(naive_reduce(word))
    while len(w) >= 2 and w[0] == inv(w[-1]):
        w = w[1:-1]
    return tuple(w)


def stack_events(word):
    """The events of reducing with a letter-by-letter stack, then stripping
    mutually inverse ends: (left, right, kind) triples, in order."""
    stack, events = [], []
    for pos, letter in enumerate(word):
        if stack and word[stack[-1]] == inv(letter):
            events.append((stack.pop(), pos, "internal"))
        else:
            stack.append(pos)
    lo, hi = 0, len(stack)
    while hi - lo >= 2 and word[stack[lo]] == inv(word[stack[hi - 1]]):
        events.append((stack[lo], stack[hi - 1], "external"))
        lo, hi = lo + 1, hi - 1
    return events


def naive_conjugator(word):
    """The prefix t with naive_reduce(word) == t + core + inverse(t)."""
    red = naive_reduce(word)
    core = naive_cyc_reduce(word)
    k = (len(red) - len(core)) // 2
    return red[:k]


def rotations(word):
    if not word:
        return [()]
    return [word[k:] + word[:k] for k in range(len(word))]


def rotate(word, k):
    if not word:
        return ()
    k %= len(word)
    return word[k:] + word[:k]


def is_reduced(word):
    return all(word[i] != inv(word[i + 1]) for i in range(len(word) - 1))


def is_cyclically_reduced(word):
    if not is_reduced(word):
        return False
    if len(word) >= 2 and word[-1] == inv(word[0]):
        return False
    return True


def naive_max_cancellation(u, v):
    """Longest a with u = u1 + a, v = inverse(a) + v1, u1 + v1 reduced."""
    assert is_reduced(u) and is_reduced(v)
    best = 0
    for k in range(min(len(u), len(v)) + 1):
        if k and u[len(u) - k] != inv(v[k - 1]):
            break
        rest = u[:len(u) - k] + v[k:]
        if is_reduced(rest):
            best = k
    a = u[len(u) - best:] if best else ()
    return u[:len(u) - best], a, v[best:]


def naive_cyc_product(u, v):
    return naive_cyc_reduce(naive_reduce(u) + naive_reduce(v))


def conjugation_witnesses(b, w):
    """All (w1, w2, b1, n, branch) decompositions of the reduced form of
    b w b^-1, found by brute force.

    branch 1: w inverse(b) reduced, w2 nonempty, b == b1 + inverse(w1) + w^-n
    branch 2: b w reduced, w1 nonempty, b == b1 + w2 + w^n
    Either way the reduced form of b w b^-1 is exactly b1 + w2 + w1 +
    inverse(b1).
    """
    assert is_cyclically_reduced(w) and w and is_reduced(b)
    target = naive_reduce(b + w + inverse(b))
    out = []
    for cut in range(len(w) + 1):
        w1, w2 = w[:cut], w[cut:]
        for n in range(len(b) + 1):
            tail1 = inverse(w1) + inverse(w) * n
            if w2 and len(tail1) <= len(b) and b[len(b) - len(tail1):] == tail1:
                b1 = b[:len(b) - len(tail1)]
                if is_reduced(w + inverse(b)) and target == b1 + w2 + w1 + inverse(b1):
                    out.append((w1, w2, b1, n, 1))
            tail2 = w2 + w * n
            if w1 and len(tail2) <= len(b) and b[len(b) - len(tail2):] == tail2:
                b1 = b[:len(b) - len(tail2)]
                if is_reduced(b + w) and target == b1 + w2 + w1 + inverse(b1):
                    out.append((w1, w2, b1, n, 2))
    return out


def product_case_number(u, v):
    """Which of the three cancellation configurations (u, v) falls in,
    computed from lengths alone."""
    u1, a, v1 = naive_max_cancellation(u, v)
    t = naive_conjugator(u1 + v1)
    m = naive_cyc_reduce(u1 + v1)
    if len(u1) <= len(t):
        return 1
    if len(u1) < len(t) + len(m):
        return 2
    return 3


def closure_members(relators, max_len, include_inverses=True, rounds=None):
    """Breadth-first closure under rotation and the cyclically reduced
    product, keeping nonempty words of length <= max_len."""
    members = set()
    for r in relators:
        for seed in ([naive_cyc_reduce(r)] +
                     ([naive_cyc_reduce(inverse(r))] if include_inverses else [])):
            if seed and len(seed) <= max_len:
                members.update(rotations(seed))
    done = 0
    while rounds is None or done < rounds:
        new = set()
        for a, b in itertools.product(members, repeat=2):
            p = naive_cyc_product(a, b)
            if p and len(p) <= max_len:
                new.update(set(rotations(p)) - members)
        if not new:
            break
        members |= new
        done += 1
    return members


def word_strings(alphabet_size, length):
    """Every reduced word of exactly this length over the first
    alphabet_size generators."""
    letters = [(g, s) for g in range(alphabet_size) for s in (1, -1)]
    if length == 0:
        yield ()
        return
    for combo in itertools.product(letters, repeat=length):
        ok = all(combo[i] != inv(combo[i + 1]) for i in range(length - 1))
        if ok:
            yield combo


def random_word(rng, alphabet_size, length):
    letters = [(g, s) for g in range(alphabet_size) for s in (1, -1)]
    return tuple(rng.choice(letters) for _ in range(length))


def random_reduced_word(rng, alphabet_size, length):
    letters = [(g, s) for g in range(alphabet_size) for s in (1, -1)]
    w = []
    for _ in range(length):
        options = [l for l in letters if not w or l != inv(w[-1])]
        w.append(rng.choice(options))
    return tuple(w)


def random_cyclically_reduced_word(rng, alphabet_size, length):
    for _ in range(10000):
        w = random_reduced_word(rng, alphabet_size, length)
        if is_cyclically_reduced(w):
            return w
    raise AssertionError("could not sample a cyclically reduced word")


def _letter_key(letter):
    g, s = letter
    return (g, 0 if s > 0 else 1)


def naive_least_rotation(word):
    """(least rotation in letter order, least shift reaching it), by trying
    every shift."""
    if not word:
        return (), 0
    key = lambda w: tuple(_letter_key(l) for l in w)
    k = min(range(len(word)), key=lambda k: (key(rotate(word, k)), k))
    return rotate(word, k), k


def naive_shift_between(u, v):
    """The least k with rotate(u, k) == v, or None."""
    if len(u) != len(v):
        return None
    if not u:
        return 0
    for k in range(len(u)):
        if rotate(u, k) == v:
            return k
    return None


def naive_cancel_any_order(word, chooser):
    """(residual, events) of free cancellation in the order chooser picks:
    a policy name or an integer seed.  Every step lists the candidates
    afresh, adjacent inverse survivors left to right and then the outermost
    pair when it is inverse and more than two letters survive; a seed draws
    from that list with random.Random(seed).choice.  Events are
    (left, right, kind) triples."""
    rng = random.Random(chooser) if isinstance(chooser, int) else None
    alive = list(range(len(word)))
    events = []
    step = 0
    while True:
        cands = [(alive[i], alive[i + 1], "internal")
                 for i in range(len(alive) - 1)
                 if word[alive[i]] == inv(word[alive[i + 1]])]
        internal = list(cands)
        ext = None
        if len(alive) > 2 and word[alive[0]] == inv(word[alive[-1]]):
            ext = (alive[0], alive[-1], "external")
            cands.append(ext)
        if not cands:
            break
        if rng is not None:
            pick = rng.choice(cands)
        elif chooser == "internal-first":
            pick = cands[0]
        elif chooser == "external-first-when-valid":
            pick = ext or cands[0]
        elif chooser == "rightmost-internal-first":
            pick = internal[-1] if internal else ext
        elif chooser == "alternating":
            if step % 2 == 0:
                pick = internal[0] if internal else ext
            else:
                pick = ext or internal[0]
        else:
            raise ValueError(chooser)
        events.append(pick)
        alive.remove(pick[0])
        alive.remove(pick[1])
        step += 1
    return tuple(word[i] for i in alive), tuple(events)


def naive_schedule(n, pairs):
    """Events (left, right, kind) that cancel the given position pairs of a
    word of length n: at each step the leftmost pair adjacent among the
    survivors, as internal, else the pair of the two outermost survivors, as
    external.  Pairs that never fire are appended as given, as internal.
    Meant for pairs that name each position at most once."""
    alive = list(range(n))
    remaining = list(pairs)
    events = []
    while remaining:
        rank = {p: i for i, p in enumerate(alive)}
        adjacent = [(l, r) for l, r in remaining
                    if l in rank and r in rank and rank[r] == rank[l] + 1]
        if adjacent:
            pick, kind = min(adjacent), "internal"
        elif len(alive) > 1 and (alive[0], alive[-1]) in remaining:
            pick, kind = (alive[0], alive[-1]), "external"
        else:
            break
        remaining.remove(pick)
        alive.remove(pick[0])
        alive.remove(pick[1])
        events.append(pick + (kind,))
    return tuple(events) + tuple((l, r, "internal") for l, r in remaining)
