"""Schreier transversals, Reidemeister rewriting and subgroup presentations:
the basis and the kernel presentation that ``pdef subgroup`` prints, and
the rewriting against which ``verification`` checks the kernel formulas of
``invariants``.  No command takes a p-deficiency off the rewritten
relators: ``subgroup`` reads de_p of the kernel off the transfer formula,
and ``verification.supermultiplicity_check`` is the rewriting oracle.

The finite-index subgroups handled here are kernels of maps onto finite
permutation groups.  The coset table of a kernel is the quotient's regular
tables (``FiniteQuotient.tables``): cosets are the image-group elements,
numbered breadth-first with the identity as base coset 0 (Sims,
*Computation with Finitely Presented Groups*, ch. 5).  The cycles of each
table are laid out once, as ``FiniteQuotient.layouts`` has them, and a
word moves along them run by run.  No coset enumeration and no
permutation product is needed.  A transversal word t leads along the
Schreier tree, so t*r*t^-1 rewritten from coset 0 is r rewritten from the
coset of t: relators are rewritten from cosets, never conjugated.

``pdef subgroup`` prints the basis as text, never as ``Word``s:
``basis_texts`` formats each transversal word once and joins the pieces
of two of them around one run per basis element.  ``basis_words`` builds
the same basis as ``Word``s; it is the oracle of those texts.
"""

import string
from itertools import accumulate

from .invariants import class_cosets, relator_roots
from .presentation import FinitePresentation
from .quotient import FiniteQuotient
from .words import RUN_LIMIT, Word, _join, _record, _seam


@_record
class SchreierData:
    """The Schreier data of a kernel, as one numbering of the edges of its
    coset table.  Edge (c, g) leads from coset c to ``tables[g][c]``; the
    non-tree edges are the basis letters, numbered generator by generator
    and coset by coset.

    ``cycles[g]`` is ``(L, seq, place, plus, minus, count)`` for the table
    of g, whose cycles all have length L, the period of g.  ``seq`` lists
    its cycles in the order of ``FiniteQuotient.layouts``, each walked
    twice, and ``place[c]`` is where c first stands in it.  ``plus`` and
    ``minus`` are the basis letters of the edges along ``seq``, as runs
    ``(s, 1)`` and ``(s, -1)``, and ``count[j]`` is the number of letters
    among its first j edges.  So the letters of an arc of a cycle, or of a
    whole turn from any coset, are one slice of ``plus`` or ``minus``."""

    table: FiniteQuotient    # its regular tables are the coset table
    transversal: tuple       # shortlex-minimal representative per coset
    letter: tuple            # letter[g][c]: basis index of edge (c, g), -1 on the tree
    cycles: tuple
    rank: int

    @property
    def degree(self) -> int:
        return self.table.order


def schreier(q: FiniteQuotient) -> SchreierData:
    """Shortlex breadth-first spanning tree of the coset table of the kernel
    of ``q`` and the numbering of its Schreier basis.

    Letters are tried in the order g_1, g_1^-1, g_2, g_2^-1, ...; g^-1
    leads from a coset to its predecessor on its cycle in the table of g.
    The basis has 1 + index*(n_gens - 1) elements (Nielsen-Schreier).  The
    regular tables are transitive, so every coset is reached.  A cycle of
    a table is a closed walk, so the tree misses one of its edges at least:
    every cycle holds a basis letter.
    """
    tables = q.tables
    d = q.order
    k = q.n_gens
    walks = []  # (L, seq, place) of each table, its cycles walked twice
    for length, cols, place in q.layouts:
        seq = []
        for i in range(0, d, length):
            seq += cols[i:i + length] * 2
        walks.append((length, seq, [2 * x - x % length for x in place]))

    runs = [None] * d  # of the transversal words
    runs[0] = ()
    tree = [bytearray(d) for _ in range(k)]  # tree[g][c]: edge (c, g) is on the tree
    steps = []
    for g, (length, seq, place) in enumerate(walks):
        steps.append((((g, 1),), ((g, -1),), tables[g], seq, place, length - 1, tree[g]))
    queue = [0]
    for c in queue:
        t = runs[c]
        for forward, backward, table, seq, place, back, on_tree in steps:
            target = table[c]
            if runs[target] is None:
                runs[target] = _join(t, forward)
                on_tree[c] = 1
                queue.append(target)
            target = seq[place[c] + back]  # c's predecessor on its cycle
            if runs[target] is None:
                runs[target] = _join(t, backward)
                on_tree[target] = 1
                queue.append(target)

    letter = []
    rank = 0
    for on_tree in tree:
        row = []
        for flag in on_tree:
            row.append(-1 if flag else rank)
            rank += not flag
        letter.append(tuple(row))

    cycles = []
    for (length, seq, place), row in zip(walks, letter):
        letters = [row[c] for c in seq]
        plus = [(s, 1) for s in letters if s >= 0]
        minus = [(s, -1) for s in letters if s >= 0]
        count = list(accumulate(map((-1).__ne__, letters), initial=0))
        cycles.append((length, seq, place, plus, minus, count))
    return SchreierData(q, tuple(Word._make(r, k) for r in runs), tuple(letter),
                        tuple(cycles), rank)


def basis_texts(sd: SchreierData, names) -> list:
    """The texts of the basis words t_c * g * t_{c.g}^-1 over ``names``, in
    basis order, one per non-tree edge (c, g), as ``word_to_text`` prints
    them; ``pdef subgroup`` prints these.

    Each transversal word is formatted once with and once without its last
    run, and its inverse with and without its first run.  A basis text joins
    the pieces of t_c and t_{c.g}^-1 with one middle run of g.  On the
    shortlex tree g merges with t_c's last run when that is a positive
    power of g, and with t_{c.g}^-1's first run when that is one; it never
    cancels, since t_c ending in g^-1, or t_{c.g} in g, would put the edge
    (c, g) on the tree."""
    heads, fulls, tails, backs, lasts = [], [], [], [], []
    for t in sd.transversal:
        runs = t.runs
        if not runs:
            heads.append("")
            fulls.append("")
            tails.append("")
            backs.append("")
            lasts.append((-1, 0))
            continue
        parts = [names[g] if e == 1 else f"{names[g]}^{e}" for g, e in runs]
        inverse = [names[g] if e == -1 else f"{names[g]}^{-e}" for g, e in reversed(runs)]
        head = "*".join(parts[:-1]) + "*" if len(parts) > 1 else ""
        tail = "*" + "*".join(inverse[1:]) if len(parts) > 1 else ""
        heads.append(head)
        fulls.append(head + parts[-1] + "*")
        tails.append(tail)
        backs.append("*" + inverse[0] + tail)
        lasts.append(runs[-1])
    texts = []
    for g, (row, table) in enumerate(zip(sd.letter, sd.table.tables)):
        name = names[g]
        for c, s in enumerate(row):
            if s < 0:
                continue
            d = table[c]
            e = 1
            h, k = lasts[c]
            if h == g:
                e += k
                pre = heads[c]
            else:
                pre = fulls[c]
            h, k = lasts[d]
            if h == g:
                e -= k
                post = tails[d]
            else:
                post = backs[d]
            texts.append(pre + (name if e == 1 else f"{name}^{e}") + post)
    return texts


def basis_words(sd: SchreierData) -> tuple:
    """The basis words t_c * g * t_{c.g}^-1 over the original alphabet, in
    basis order, one per non-tree edge (c, g).  No command builds them:
    they are the oracle of ``basis_texts``."""
    tables = sd.table.tables
    k = sd.table.n_gens
    runs = [t.runs for t in sd.transversal]
    back = [t.inverse().runs for t in sd.transversal]
    words = []
    for g, (row, table) in enumerate(zip(sd.letter, tables)):
        step = ((g, 1),)
        for c, s in enumerate(row):
            if s >= 0:
                words.append(Word._make(_join(_join(runs[c], step), back[table[c]]), k))
    return tuple(words)


def _check_alphabet(sd: SchreierData, n_gens: int) -> None:
    if n_gens != sd.table.n_gens:
        raise ValueError(
            f"alphabet mismatch: word has {n_gens} generators, "
            f"table {sd.table.n_gens}"
        )


def rewrite_word(sd: SchreierData, w: Word, start: int = 0) -> Word:
    """Express t*w*t^-1 in the Schreier basis, t the transversal word of
    coset ``start``: walk w from that coset, where tree edges contribute
    nothing and each non-tree edge its basis letter.

    The walk goes run by run.  A run g^e crosses its cycle in the table of
    g |e| // L whole times, L the cycle length, then its first |e| % L
    edges: their letters are a slice of the cycle's letters, repeated for
    the whole turns, and a cycle that holds a single basis letter s gives
    the one run s^(turns + hits).  A negative run crosses backwards the
    edges that g^|e| crosses from its endpoint, so it takes the reversed
    slice from there.  The letters of one run are reduced, and they are
    joined to the result at their seam only.  A run that crosses only tree
    edges lets its neighbours' letters meet, and they can merge; they never
    cancel, as the walk between two crossings of one edge in opposite
    directions would be a closed walk on the tree that never turns back.
    A result of more than ``RUN_LIMIT`` runs from repeated turns, counted
    before they are joined, is refused before it is built.
    """
    _check_alphabet(sd, w.n_gens)
    cycles = sd.cycles
    runs = []
    total = 0  # runs before they are joined
    c = start
    for g, e in w.runs:
        length, seq, place, plus, minus, count = cycles[g]
        x = place[c]
        i = x % (2 * length)
        end = x - i + (i + e) % length
        c = seq[end]
        if e < 0:  # the arc from the endpoint
            x = end
        turns, rest = divmod(abs(e), length)
        lo, hi = count[x], count[x + rest]
        if turns:
            n = count[x + length] - lo
            if n == 1:
                total += 1 + hi - lo
                s = plus[lo][0]
                letters = [(s, turns + hi - lo if e > 0 else lo - hi - turns)]
            else:
                if total + turns * n > RUN_LIMIT:
                    raise ValueError(
                        f"the rewritten word would have more than {RUN_LIMIT} runs")
                total += turns * n + hi - lo
                if e > 0:
                    letters = plus[lo:lo + n] * turns + plus[lo:hi]
                else:
                    letters = (minus[lo:lo + n] * turns + minus[lo:hi])[::-1]
        elif hi > lo:
            total += hi - lo
            letters = plus[lo:hi] if e > 0 else minus[lo:hi][::-1]
        else:
            continue
        if runs and runs[-1][0] == letters[0][0]:
            j, k, merged = _seam(runs, letters)
            del runs[j:]
            runs += merged
            runs += letters[k:]
        else:
            runs += letters
    if c != start:
        raise ValueError("word does not lie in the subgroup")
    return Word._make(tuple(runs), sd.rank)


def _subgroup_names(n: int) -> tuple:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"s{i + 1}" for i in range(n))


def subgroup_presentation(
    pres: FinitePresentation, q: FiniteQuotient, refined: bool = True,
    sd: SchreierData = None,
) -> FinitePresentation:
    """Presentation of the kernel-image subgroup on the Schreier basis.

    With ``refined`` (default) each relator is rewritten once per
    kernel-conjugacy class of its transversal conjugates, from the first
    coset of ``class_cosets``; the naive variant rewrites it from all
    ``index`` cosets and is retained for differential testing only.
    ``sd``, when given, must be ``schreier(q)``; it saves building it
    again.

    A relator that ``q`` does not kill raises ``ValueError``: "word is not
    in the kernel" from ``class_cosets`` (refined) or "word does not lie
    in the subgroup" from ``rewrite_word`` (naive).
    """
    if sd is None:
        sd = schreier(q)
    _check_alphabet(sd, pres.n_gens)
    relators = []
    if refined:
        for r, root in zip(pres.relators, relator_roots(pres)):
            relators.extend(rewrite_word(sd, r, c) for c in class_cosets(q, root))
    else:
        for r in pres.relators:
            relators.extend(rewrite_word(sd, r, c) for c in range(sd.degree))
    # every rewritten relator is a non-trivial word over the basis
    return FinitePresentation._make(_subgroup_names(sd.rank), tuple(relators))

