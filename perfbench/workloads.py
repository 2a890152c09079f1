"""Request templates of the three benchmark workloads.

A template is one CLI request with up to three cost-neutral variant axes:
the `--h0` flag, the output format of `tables`, and a shift of the divisor
type `--mu` by a multiple of b-1 in every entry (the search canonicalises
tops by exactly this shift, so node counts do not change).  A pass of a
workload draws one variant per occurrence of each template from the seed and
shuffles the result.  Every seed therefore sends the same multiset of request
kinds, which keeps the work per pass, and so the timings, comparable across
seeds, while the bytes the program sees still differ.  Passes of `tables`
and `search-cold` are short lists, so their nearest-rank p50 and p90 sit on
one group of similar requests; the lists are sized so that neither falls on
the edge between two groups, where it would jump from run to run.

`pool(workload)` lists every request a seed can produce; the recorded stdout
digests in expected.json cover exactly that pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

WORKLOADS = ("tables", "search-cold", "mixed-session")

# vertex counts of K and K + C* at b = 10000 (acceptance criterion 1),
# checked independently of the recorded digests
TABLE_COUNTS = {2: (1, 1), 3: (3, 3), 4: (6, 5), 5: (15, 9), 6: (33, 17),
                7: (70, 31), 8: (136, 47)}

# cold searches carry an explicit node budget: over 40x the largest node
# count of any request below at the commit that recorded the digests
COLD_BUDGET = "20000000"
SHIFTS = {"search-cold": 4, "mixed-session": 2}


@dataclass(frozen=True)
class Template:
    cmd: tuple[str, ...]
    b: int
    mu: tuple[int, ...] | None = None
    tail: tuple[str, ...] = ()
    h0: bool = False
    fmt: bool = False
    shifts: int = 1
    repeat: int = 1

    def render(self, h0: bool, fmt: str | None, shift: int) -> list[str]:
        argv = list(self.cmd)
        if self.mu is not None:
            argv += ["--mu", ",".join(str(x + shift * (self.b - 1)) for x in self.mu)]
        argv += self.tail
        if h0:
            argv.append("--h0")
        if fmt is not None:
            argv += ["--format", fmt]
        return argv

    def _axes(self):
        return ((False, True) if self.h0 else (False,),
                ("json", "csv") if self.fmt else (None,),
                range(self.shifts if self.mu is not None else 1))

    def variants(self) -> list[list[str]]:
        return [self.render(*choice) for choice in product(*self._axes())]

    def draw(self, rng: random.Random) -> list[str]:
        return self.render(*(rng.choice(tuple(axis)) for axis in self._axes()))


def _db(cmd, d, b):
    return (cmd, "--d", str(d), "--b", str(b))


# extra b values of the single-d tables, chosen so that the 25 requests of a
# `tables` pass sort into cost groups by d of sizes 2, 3, 4, 6, 5, 4, 1: the
# nearest-rank p50 and p90 then fall in the middle of the d = 5 and d = 7 groups
# (the 2nd to 4th cheapest d = 7 requests cost within 3 % of each other)
TABLE_EXTRA_B = {2: (7,), 3: (7, 17), 4: (7, 17, 101), 5: (7, 17, 101, 1009, 10007),
                 6: (7, 17, 101, 1009), 7: (7, 17, 100003), 8: ()}


def _tables():
    return [Template(_db("tables", d, b), b, fmt=True)
            for d, extra in TABLE_EXTRA_B.items() for b in (10000,) + extra]


def _search_cold():
    def dim(b, **kw):
        return Template(_db("dim", 4, b), b, h0=True, shifts=SHIFTS["search-cold"],
                        **kw)

    budget = ("--budget", COLD_BUDGET)
    # the three copies of the b = 3 search are the three costliest requests,
    # so the nearest-rank p90 lands inside them
    out = [dim(2, tail=("--e", "9") + budget)]
    out += [dim(3, tail=("--e", "13") + budget)] * 3
    # strongly integrally b-regular divisor types, 0.4-0.7 s each
    out += [dim(b, mu=mu, tail=("--le-mu",) + budget)
            for b, mu in ((2, (15, 6, 5, 0)), (3, (18, 5, 5, 0)))]
    # single tops: a case that pruning across tops cannot help.  The five
    # copies of one type (each with its own drawn shift and --h0) hold ranks
    # 5-9 of the 15 by cost, so the nearest-rank p50 lands inside them.
    out += [dim(b, mu=mu, tail=budget)
            for b, mu in ((2, (18, 8, 6, 0)), (2, (24, 12, 12, 0)), (3, (20, 8, 4, 0)),
                          (3, (24, 12, 8, 0))) + ((2, (22, 10, 8, 0)),) * 5]
    return out


# per d: one strongly regular type at b = 2 (so bounds --le-mu also builds
# its witness), one at a larger gap, one that is not b-regular
MIXED_MU = {2: ((6, 0), (9, 2), (13, 1)),
            3: ((9, 3, 0), (12, 5, 0), (7, 4, 1)),
            4: ((12, 4, 4, 0), (14, 6, 4, 0), (8, 5, 2, 1)),
            5: ((15, 5, 5, 5, 0), (17, 7, 6, 5, 0), (9, 6, 4, 2, 1))}
# the exact minimum over permutations needs b >= 1 + floor((d-1)^2/4)
B0 = {2: 1, 3: 2, 4: 3, 5: 5}
# strongly integrally b-regular types, the domain of witness --mu
WITNESS_MU = ((2, 2, (6, 0)), (2, 3, (8, 0)), (3, 2, (9, 3, 0)), (3, 3, (14, 4, 0)),
              (4, 2, (12, 4, 4, 0)), (4, 3, (16, 4, 4, 0)), (5, 2, (15, 5, 5, 5, 0)))
# smallest b of the single-d vertex tables
TABLE_B = {2: (2, 3, 5), 3: (2, 3, 5), 4: (3, 5, 7), 5: (6, 7)}


def _mixed_session():
    bs = (2, 3, 5, 7)
    shifts = SHIFTS["mixed-session"]
    out = [Template(_db("bounds", d, b), b, tail=("--e", str(e)), h0=True, repeat=3)
           for d in range(2, 6) for b in bs for e in (0, 2, 5, 9, 14, 20)]
    out += [Template(_db("bounds", d, b), b, mu=mu, h0=True, shifts=shifts, repeat=4)
            for d in range(2, 6) for b in bs if b >= B0[d] for mu in MIXED_MU[d]]
    out += [Template(_db("bounds", d, b), b, mu=mu, tail=("--le-mu",), h0=True,
                     shifts=shifts, repeat=3)
            for d in range(2, 6) for b in bs for mu in MIXED_MU[d]]
    out += [Template(_db("witness", d, b), b, tail=("--e", str(e)), h0=True, repeat=3)
            for d in range(2, 6) for b in bs for e in (1, 6, 13)]
    out += [Template(_db("witness", d, b), b, mu=mu, h0=True, shifts=shifts, repeat=6)
            for d, b, mu in WITNESS_MU]
    # repeated dim requests share the solver memo (and --h0 / shifted
    # variants map to the same memo keys)
    out += [Template(_db("dim", d, b), b, tail=("--e", str(e)), h0=True, repeat=5)
            for d in (2, 3) for b in (2, 3, 5) for e in (2, 4, 6, 8)]
    out += [Template(_db("dim", d, b), b, mu=mu, h0=True, shifts=shifts, repeat=5)
            for d in (2, 3) for b in (2, 3, 5)
            for mu in {2: ((5, 1), (8, 2), (6, 6)), 3: ((6, 3, 0), (9, 4, 1), (5, 5, 2))}[d]]
    out += [Template(_db("tables", d, b), b, fmt=True, repeat=4)
            for d, table_bs in TABLE_B.items() for b in table_bs]
    out += [Template(("hasse", "--d", str(d)), 2, repeat=5) for d in (2, 3, 4)]
    return out


TEMPLATES = {"tables": _tables, "search-cold": _search_cold,
             "mixed-session": _mixed_session}


def pool(workload: str) -> list[list[str]]:
    """Every request a seed of this workload can produce, once each."""
    requests = {}
    for t in TEMPLATES[workload]():
        for argv in t.variants():
            requests.setdefault(key(argv), argv)
    return list(requests.values())


def stream(workload: str, seed: int) -> list[list[str]]:
    """One pass of the workload: its requests in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    reqs = [t.draw(rng) for t in TEMPLATES[workload]() for _ in range(t.repeat)]
    rng.shuffle(reqs)
    return reqs


def key(argv: list[str]) -> str:
    return " ".join(argv)
