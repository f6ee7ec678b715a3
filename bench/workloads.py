"""Seeded job lists for the three workloads and the checks each job makes
on the JSON reports it gets back.

A job runs one to three ``pdef`` commands through ``execute(args)``, which
returns the parsed ``--json`` report, and raises ``CheckError`` when a report
disagrees with what ``oracle`` computes apart from the program.  The seed
changes the inputs but not the work they take: generator names, rotations
of relators, random words of fixed length and shape, primes from a narrow
band, the prime of each kernel job and the numbering of the points its
quotient acts on.  So every seed gives nearly the same amount of work.
"""

import itertools
import math
import random
import string
from fractions import Fraction

import oracle
from oracle import rational


class CheckError(AssertionError):
    pass


def ensure(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- presentations as letter lists -----------------------------------------


class Pres:
    """Generator names plus relators as signed 1-based letter lists."""

    def __init__(self, names, relators):
        self.names = list(names)
        self.relators = [list(r) for r in relators]

    @property
    def n_gens(self) -> int:
        return len(self.names)

    def text(self) -> str:
        return "< " + ", ".join(self.names) + " | " + ", ".join(
            relator_text(r, self.names) for r in self.relators) + " >"


def runs_text(letters, names) -> str:
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        g = abs(letters[i]) - 1
        e = (j - i) * (1 if letters[i] > 0 else -1)
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        i = j
    return "*".join(parts)


def relator_text(letters, names) -> str:
    """A cyclically reduced relator written as a power of its root."""
    m = oracle.root_exponent(letters)
    root = letters[:len(letters) // m]
    if m == 1 or len(set(root)) == 1:
        return runs_text(letters, names)
    return f"({runs_text(root, names)})^{m}"


def parse_word_text(text: str, names) -> list:
    """Letters of a word printed as ``a^2*b^-1*...`` (or ``1``)."""
    if text == "1":
        return []
    index = {n: i + 1 for i, n in enumerate(names)}
    out = []
    for token in text.split("*"):
        name, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        out += [index[name] if e > 0 else -index[name]] * abs(e)
    return out


def disguise(rng: random.Random, pres: Pres) -> Pres:
    """The same group under fresh generator names, with each relator rotated
    to start at a random run.  Generator order, relator order and the runs of
    every relator stay, so the search tries the same assignments in the same
    order at the same cost.  (Inverting a relator would not: the program
    inverts a permutation for every negative run it evaluates.)"""
    pool = list(string.ascii_lowercase)
    rng.shuffle(pool)
    names = [pool[i] + (str(rng.randrange(10)) if rng.random() < 0.5 else "")
             for i in range(pres.n_gens)]
    relators = []
    for r in pres.relators:
        m = oracle.root_exponent(r)
        root = r[:len(r) // m]
        starts = [i for i in range(len(root)) if root[i] != root[i - 1]] or [0]
        shift = rng.choice(starts)
        root = root[shift:] + root[:shift]
        relators.append(root * m)
    return Pres(names, relators)


def von_dyck(l, m, n) -> Pres:
    return Pres(["x", "y"], [[1] * l, [2] * m, [1, 2] * n])


def triangle3(l, m, n) -> Pres:
    return Pres(["x", "y", "z"], [[1] * l, [2] * m, [3] * n, [1, 2, 3]])


def surface(genus: int) -> Pres:
    long = []
    for j in range(genus):
        u, v = 2 * j + 1, 2 * j + 2
        long += [u, v, -u, -v]
    return Pres([f"g{i}" for i in range(2 * genus)], [long])


# -- abelian invariants by determinantal divisors ---------------------------


def _det(rows) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _subsets(items, k):
    if k == 0:
        yield ()
        return
    for i in range(len(items) - k + 1):
        for rest in _subsets(items[i + 1:], k - 1):
            yield (items[i],) + rest


def abelian_invariants(pres: Pres) -> tuple:
    """(free rank, divisors >= 2) of the abelianization, from the gcds of
    the minors of the exponent-sum matrix; for a handful of generators."""
    n = pres.n_gens
    cols = []
    for r in pres.relators:
        sums = [0] * n
        for lt in r:
            sums[abs(lt) - 1] += 1 if lt > 0 else -1
        cols.append(sums)
    divisors = []
    prev = 1
    rank = 0
    for k in range(1, min(n, len(cols)) + 1):
        g = 0
        for rows in _subsets(list(range(n)), k):
            for cs in _subsets(list(range(len(cols))), k):
                g = _gcd(g, _det([[cols[c][r] for c in cs] for r in rows]))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
        rank = k
    return n - rank, [d for d in divisors if d > 1]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def abelian_group_de(rank: int, divisors, p: int) -> Fraction:
    total = Fraction(rank - 1)
    for d in divisors:
        total += 1 - Fraction(1, p ** oracle.valuation(d, p))
    return total


def check_abelian(payload_rank, payload_divisors, pres: Pres, p: int, dp=None) -> tuple:
    rank, divisors = abelian_invariants(pres)
    ensure(payload_rank == rank, f"rank {payload_rank} != {rank}")
    ensure(list(payload_divisors) == divisors, f"divisors {payload_divisors} != {divisors}")
    if dp is not None:
        ensure(dp == rank + sum(1 for d in divisors if d % p == 0), f"d_p {dp} is wrong")
    return rank, divisors


# -- search ------------------------------------------------------------------


class SearchJob:
    """One of chi, gradient or witness on a disguised small presentation."""

    ops = 1

    def __init__(self, command, p, pres, max_order, surface_genus=None):
        self.command = command
        self.p = p
        self.pres = pres
        self.max_order = max_order
        self.surface_genus = surface_genus
        self.args = [command, "-p", str(p), pres.text(), "--max-order", str(max_order)]
        self.name = f"{command} -p {p} {pres.text()} --max-order {max_order}"
        self._kernels = None

    def kernels(self) -> int:
        if self._kernels is None:
            self._kernels = oracle.kernel_count(self.pres.n_gens, self.pres.relators,
                                                self.max_order)
        return self._kernels

    def run(self, execute) -> None:
        out = execute(self.args)
        getattr(self, "_check_" + self.command)(out)

    def _check_chi(self, out) -> None:
        de = oracle.p_deficiency(self.pres.n_gens, self.pres.relators, self.p)
        ensure(out["exhausted"] is False, "search ran out of budget")
        ensure(out["subgroups_examined"] == 1 + self.kernels(),
               f"{out['subgroups_examined'] - 1} kernels reported, Hall's count is {self.kernels()}")
        samples = out["samples"]
        ensure(len(samples) == out["subgroups_examined"], "sample count mismatch")
        ensure(samples[0]["index"] == 1 and rational(samples[0]["deficiency"]) == de,
               "index-1 sample is not the presentation's p-deficiency")
        for s in samples:
            d = rational(s["deficiency"])
            ensure(d >= s["index"] * de, f"supermultiplicity fails at index {s['index']}")
            ensure(rational(s["ratio"]) == d / s["index"], "ratio is not deficiency/index")
        ensure(rational(out["best_ratio"]) == max(rational(s["ratio"]) for s in samples),
               "best ratio is not the maximum")

    def _check_gradient(self, out) -> None:
        ensure(out["exhausted"] is False, "search ran out of budget")
        samples = out["samples"]
        ensure(len(samples) == 1 + self.kernels(),
               f"{len(samples) - 1} kernels reported, Hall's count is {self.kernels()}")
        rank, divisors = abelian_invariants(self.pres)
        ensure(samples[0]["index"] == 1 and samples[0]["d_p"]
               == rank + sum(1 for d in divisors if d % self.p == 0), "index-1 d_p is wrong")
        for s in samples:
            ensure(rational(s["ratio"]) == Fraction(s["d_p"], s["index"]), "ratio is not d_p/index")
            if self.surface_genus is not None:
                expected = 2 + s["index"] * (2 * self.surface_genus - 2)
                ensure(s["d_p"] == expected,
                       f"surface kernel of index {s['index']} has d_p {s['d_p']} != {expected}")
        ratios = [rational(s["ratio"]) for s in samples]
        ensure(rational(out["min_ratio"]) == min(ratios)
               and rational(out["max_ratio"]) == max(ratios), "window ends are wrong")

    def _p_prime_roots(self) -> list:
        roots = []
        for r in self.pres.relators:
            m = oracle.root_exponent(r)
            root = r[:len(r) // m]
            roots.append(root * (self.p ** oracle.valuation(m, self.p)))
        return roots

    def _check_witness(self, out) -> None:
        roots = self._p_prime_roots()
        if not out["found"]:
            ensure(out["exhausted"] is False, "search ran out of budget")
            # no catalog quotient may keep any p'-root alive
            for grp in oracle.catalog_groups():
                if grp.order > self.max_order:
                    continue
                for a in itertools.product(range(grp.order), repeat=self.pres.n_gens):
                    if all(grp.evaluate(a, r) == 0 for r in self.pres.relators):
                        ensure(all(grp.evaluate(a, v) == 0 for v in roots),
                               f"a witness exists in {grp.name} but none was reported")
            return
        names = self.pres.names
        i = out["relator_index"]
        relator = parse_word_text(out["relator"], names)
        root = parse_word_text(out["root"], names)
        n = out["exponent"]
        ensure(relator == self.pres.relators[i], "witness relator is not relator i")
        ensure(n % self.p != 0, "witness exponent is divisible by p")
        ensure(oracle.reduce_letters(root * n) == relator, "root^exponent != relator")
        perms = quotient_perms(out["quotient"], names)
        degree = len(perms[0])
        ident = tuple(range(degree))
        ensure(all(oracle.image(perms, r) == ident for r in self.pres.relators),
               "witness quotient does not kill the relators")
        ensure(oracle.image(perms, root) != ident, "witness root dies in the quotient")
        ensure(out["index"] == len(oracle.closure(perms)), "witness index is not the image order")
        ensure(rational(out["kernel_deficiency"]) > 0, "witness kernel deficiency is not positive")


def quotient_perms(text: str, names) -> list:
    """Permutations of a quotient printed as ``a:(1 2),b:(1 3 2)``, one per
    name, on as many points as the largest one named."""
    cycles = {}
    for part in text.split("),"):
        name, _, body = part.partition(":")
        cycles[name.strip()] = [tuple(int(x) - 1 for x in c.split())
                                for c in body.replace("(", "").split(")") if c.strip()]
    degree = 1 + max((x for cs in cycles.values() for c in cs for x in c), default=0)
    return [oracle.cycle_perm(cycles[n], degree) for n in names]


# Each slot: (command, p, presentation, max order, surface genus or None).
SEARCH_SLOTS = (
    ("chi", 2, von_dyck(2, 4, 8), 24, None),
    ("gradient", 2, von_dyck(4, 4, 4), 24, None),
    ("gradient", 5, von_dyck(5, 5, 5), 24, None),
    ("gradient", 2, Pres(["x", "y"], [[1, 1], [2, 2, 2], [1, 2, 1, -2] * 4]), 24, None),
    ("chi", 2, triangle3(2, 4, 4), 24, None),
    ("chi", 3, triangle3(3, 3, 3), 12, None),
    ("gradient", 2, Pres(["x", "y", "z"], [[1, 1], [2, 2], [3, 3], [1, 2, 3] * 3]), 12, None),
    ("chi", 2, Pres(["x", "y"], [[1, 1, 2, 2, -1, 2]]), 24, None),
    ("gradient", 3, Pres(["x", "y"], [[1, 1, 2, 2, 2]]), 24, None),
    ("chi", 2, Pres(["x", "y", "z"], [[1, 1, 2, 2, 3, 3]]), 12, None),
    ("gradient", 2, surface(2), 4, 2),
    ("chi", 2, surface(2), 4, None),
    ("witness", 2, von_dyck(6, 12, 12), 24, None),
    ("witness", 2, von_dyck(2, 4, 4), 24, None),
    ("witness", 3, von_dyck(3, 6, 15), 24, None),
)


def search_jobs(rng: random.Random) -> list:
    return [SearchJob(cmd, p, disguise(rng, pres), mo, genus)
            for cmd, p, pres, mo, genus in SEARCH_SLOTS]


# -- kernels -----------------------------------------------------------------


def _psl27() -> list:
    inf = 7

    def act(f):
        return tuple(f(z) for z in range(8))

    t = act(lambda z: inf if z == inf else (z + 1) % 7)
    s = act(lambda z: 0 if z == inf else (inf if z == 0 else (-pow(z, 5, 7)) % 7))
    return [t, s]


TARGETS = {
    "A5": [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)],
    "S5": [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
    "PSL(2,7)": _psl27(),
}


def generating_tuple(rng, genus: int, periods, orders, elements):
    """Images x_1..x_r, u_1, v_1, ... of a surjection of the Fuchsian group
    onto the group with these elements, with x_i of the given orders: all but
    the last image at random, the last one by search."""
    by_order = {}
    for x in elements:
        by_order.setdefault(oracle.porder(x), []).append(x)
    ident = elements[0]
    r = len(periods)
    while True:
        xs = [rng.choice(by_order[m]) for m in orders[:-1]] if genus == 0 else \
            [rng.choice(by_order[m]) for m in orders]
        hyper = [rng.choice(elements) for _ in range(2 * genus)]
        candidates = by_order[orders[-1]] if genus == 0 else elements
        start = rng.randrange(len(candidates))
        for c in candidates[start:] + candidates[:start]:
            images = (xs + [c] + hyper) if genus == 0 else (xs + hyper[:-1] + [c])
            prod = ident
            for x in images[:r]:
                prod = oracle.pmul(prod, x)
            for j in range(genus):
                u, v = images[r + 2 * j], images[r + 2 * j + 1]
                prod = oracle.pmul(prod, oracle.pmul(oracle.pmul(u, v),
                                                     oracle.pmul(oracle.pinv(u), oracle.pinv(v))))
            if prod == ident and len(oracle.closure(images)) == len(elements):
                return images


def fuchsian_pres(genus: int, periods) -> Pres:
    """The standard presentation: x_i^e_i and x_1...x_r [u_1,v_1]..."""
    r = len(periods)
    names = [f"x{i + 1}" for i in range(r)]
    for j in range(genus):
        names += [f"u{j + 1}", f"v{j + 1}"]
    relators = [[i + 1] * e for i, e in enumerate(periods)]
    long = [i + 1 for i in range(r)]
    for j in range(genus):
        u, v = r + 2 * j + 1, r + 2 * j + 2
        long += [u, v, -u, -v]
    return Pres(names, relators + [long])


class KernelJob:
    """subgroup, then psize, then abdef on the printed kernel presentation."""

    ops = 3

    def __init__(self, rng, genus, periods, orders, target, p):
        self.p = p
        pres = fuchsian_pres(genus, periods)
        elements = oracle.closure(TARGETS[target])
        # The tuple is the same for every seed: another one could give the
        # kernel a deeper Schreier tree and longer rewritten relators.
        images = generating_tuple(random.Random(f"{genus}{periods}{target}"), genus,
                                  periods, orders, elements)
        # number the points at random
        degree = len(images[0])
        relabel = list(range(degree))
        rng.shuffle(relabel)
        back = oracle.pinv(tuple(relabel))
        images = [tuple(relabel[x[back[i]]] for i in range(degree)) for x in images]
        self.index = len(oracle.closure(images))
        image_orders = [oracle.porder(x) for x in images[:len(periods)]]
        spec = ",".join(f"{n}:{oracle.cycle_text(x)}" for n, x in zip(pres.names, images))
        self.args = ["-p", str(p), pres.text(), "--quotient", spec]
        sig = f"({genus}; {','.join(map(str, periods))})"
        self.name = f"kernel {sig} -> {target} p={p}"
        self.sub_genus, self.sub_periods = oracle.kernel_signature(
            genus, periods, image_orders, self.index)
        self.de = oracle.p_deficiency(pres.n_gens, pres.relators, p)
        self.classes = []
        for r in pres.relators:
            m = oracle.root_exponent(r)
            root = r[:len(r) // m]
            self.classes.append(self.index // oracle.porder(oracle.image(images, root)))

    def run(self, execute) -> None:
        sub = execute(["subgroup"] + self.args)
        ensure(sub["index"] == self.index, f"index {sub['index']} != image order {self.index}")
        ensure(sub["holds"] is True, "supermultiplicity reported as failing")
        ensure(rational(sub["de_presentation"]) == self.de, "de_p(presentation) is wrong")
        ensure(rational(sub["de_subgroup"]) >= self.index * self.de,
               "de(subgroup) < index * de(presentation)")
        size = execute(["psize"] + self.args)
        ensure(size["index"] == self.index, "psize index is wrong")
        ensure(rational(size["exact_sum"]) <= rational(size["transfer_bound"]),
               "exact rewritten p-size exceeds the transfer bound")
        ensure([c["classes"] for c in size["contributions"]] == self.classes,
               f"class counts {[c['classes'] for c in size['contributions']]} != {self.classes}")
        ab = execute(["abdef", "-p", str(self.p), sub["subgroup_presentation"]])
        want = oracle.kernel_abelianization(self.sub_genus, self.sub_periods, self.p)
        ensure(ab["rank"] == want["rank"], f"kernel rank {ab['rank']} != {want['rank']}")
        ensure(ab["d_p"] == want["d_p"], f"kernel d_p {ab['d_p']} != {want['d_p']}")
        torsion = math.prod(ab["divisors"])
        ensure(torsion == want["torsion"], f"kernel torsion {torsion} != {want['torsion']}")


# Each slot: (genus, periods, image orders, target group).
KERNEL_SLOTS = (
    (0, (2, 3, 7), (2, 3, 7), "PSL(2,7)"),
    (2, (), (), "PSL(2,7)"),
    (0, (2, 4, 5), (2, 4, 5), "S5"),
    (0, (3, 3, 5), (3, 3, 5), "A5"),
    (0, (2, 5, 10), (2, 5, 5), "A5"),
)


def kernel_jobs(rng: random.Random) -> list:
    return [KernelJob(rng, g, periods, orders, target, rng.choice((2, 3, 5, 7)))
            for g, periods, orders, target in KERNEL_SLOTS]


# -- words -------------------------------------------------------------------


def random_core(rng, n_gens: int, length: int) -> list:
    """A cyclically reduced word that is no proper power and whose adjacent
    letters (cyclically too) use different generators, so it has exactly
    ``length`` runs."""
    while True:
        letters = []
        for i in range(length):
            choices = [g for g in range(1, n_gens + 1)
                       if not letters or g != abs(letters[-1])]
            if i == length - 1:
                choices = [g for g in choices if g != abs(letters[0])]
            g = rng.choice(choices)
            letters.append(g if rng.random() < 0.5 else -g)
        if oracle.is_primitive_core(letters):
            return letters


def random_prime(rng, low: int, high: int) -> int:
    n = rng.randrange(low, high)
    while not oracle.is_prime(n):
        n += 1
    return n


class WordsJob:
    """def or abdef on relators c*u^k*c^-1 with u primitive."""

    ops = 1

    def __init__(self, command, p, n_gens, parts, literal):
        self.command, self.p = command, p
        names = ["x", "y", "z"][:n_gens]
        texts = []
        relators = []
        for c, u, k in parts:
            c_inv = oracle.inverse_letters(c)
            relators.append(oracle.reduce_letters(c + u * k + c_inv))
            if literal:
                texts.append("*".join(runs_text([lt], names) for lt in c + u * k + c_inv))
            else:
                texts.append("*".join(t for t in (runs_text(c, names), f"({runs_text(u, names)})^{k}",
                                                  runs_text(c_inv, names)) if t))
        self.pres = Pres(names, relators)
        self.args = [command, "-p", str(p), "< " + ", ".join(names) + " | "
                     + ", ".join(texts) + " >"]
        total = sum(len(r) for r in relators)
        self.name = f"{command} -p {p} {'literal' if literal else 'power'} {total} letters"
        self.de = Fraction(n_gens - 1) - sum(Fraction(1, p ** oracle.valuation(k, p))
                                             for _, _, k in parts)

    def run(self, execute) -> None:
        out = execute(self.args)
        if self.command == "def":
            ensure(rational(out["p_deficiency"]) == self.de,
                   f"de_p {out['p_deficiency']} != {self.de}")
            ensure(rational(out["group_lower"]) <= rational(out["group_upper"]),
                   "group_lower > group_upper")
            inv = out["abelian_invariants"]
            rank, divisors = check_abelian(inv["rank"], inv["divisors"], self.pres, self.p)
            ensure(rational(out["group_upper"]) == abelian_group_de(rank, divisors, self.p),
                   "group_upper is not the abelianization bound")
        else:
            rank, divisors = check_abelian(out["rank"], out["divisors"], self.pres,
                                           self.p, out["d_p"])
            ensure(rational(out["abelian_p_deficiency_group"])
                   == abelian_group_de(rank, divisors, self.p), "abelian de(group) is wrong")
            ensure(rational(out["abelian_p_deficiency_presentation"]) >= self.de,
                   "abelian de(presentation) is below de_p(presentation)")


def words_jobs(rng: random.Random) -> list:
    jobs = []
    big = random_prime(rng, 2 * 10**9, 2 * 10**9 + 10**6)

    def part(n_gens, c_len, u_len, k):
        u = random_core(rng, n_gens, u_len)
        while True:
            c = random_core(rng, n_gens, c_len)
            if c[-1] not in (-u[0], u[-1]):  # no cancellation at the seams
                return c, u, k

    # long literal relators: the parser sees every letter as a factor
    for command, p, n_gens in (("def", 2, 2), ("abdef", big, 2), ("def", big, 2),
                               ("def", 3, 3), ("abdef", 2, 3)):
        parts = [part(n_gens, 40, 130, 4), part(n_gens, 40, 260, 2)]
        jobs.append(WordsJob(command, p, n_gens, parts, literal=True))
    # powers c*(u)^k*c^-1 with large k: roots and valuations on long words
    for command, p, ks in (("def", 2, (2**9 * 5, 2**6 * 3 * 17)),
                           ("abdef", 2, (2**8 * 3 * 3, 2**5 * 7 * 11)),
                           ("def", 3, (3**6 * 4, 3**4 * 5 * 7)),
                           ("abdef", 3, (3**5 * 11, 3**3 * 7 * 13)),
                           ("def", 5, (5**4 * 4, 5**3 * 23)),
                           ("abdef", 5, (5**5, 5**2 * 7 * 17)),
                           ("def", 7, (7**4, 7**3 * 8)),
                           ("def", big, (2**5 * 3**4, 3 * 5 * 7 * 29)),
                           ("abdef", big, (2**11, 3**7)),
                           ("def", big, (5**5, 2**4 * 11 * 17))):
        parts = [part(3, 10, 6, k) for k in ks]
        jobs.append(WordsJob(command, p, 3, parts, literal=False))
    return jobs


WORKLOADS = {
    "search": search_jobs,
    "kernels": kernel_jobs,
    "words": words_jobs,
}
