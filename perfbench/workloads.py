"""The benchmark's workloads: fixed input pools, seeded visiting order, and
one CLI-shaped call per item.

Every workload draws from a fixed pool whose items all have a recorded
reference output (``reference.json``).  The run seed sets the order in which
the pool is visited on each pass; it does not change which inputs a pass
contains.  A fresh random draw per seed would make the completed fraction and
the latency mix move by sampling noise larger than any useful bound: about
half of the N = 2 three-lines items complete, so a draw of 40 items swings by
several items between seeds.  The library has no randomness, so the pool plus
the order is the whole input.

Why each workload exists (which layer carries it, and which is absent):

cuspidal-sweep
    certify_cuspidal(n) for every orbit length n in 4..60.  Salem degree grows
    with n and the action matrix has dim 3n + 4, so cohomology (the form check
    of the action matrix, exact spectral data up to dim 96), salem, roots and
    intpoly.strip_cyclotomic carry it.  The threelines orbit, fixed-point and
    search code does no work here.
three-lines-sweep
    certify_three_lines over a fixed seeded sample of orbit data, N in {1,2,3}
    and entries in 1..7, dropping only the documented exclusion
    ((1,), (1,)); the ROADMAP's failing example ((3,4,5), (2,3,4)) is always
    in.  Per-root orbit_verify, fixed_points_tl, geometry.chart_jacobian and
    the conjugate lists of certifier.certify_fixed_point (quadratic in the
    number of roots) carry it.  No search runs.  About half the items raise
    BallDomainError or OrbitCollision at the reference commit; they stay in
    and show as a completed fraction below one.
theorem1-search
    theorem1_pipeline(3) and theorem1_pipeline(4).  The search has no
    randomness and takes no input besides k, so the seed only sets the item
    order.  threelines.approx_parameters and its certification gate
    (orbit_verify, fixed_points_tl, a second is_salem per orbit) carry it;
    cohomology and certifier do almost nothing.
strict-evidence
    strict=True runs of certify_cuspidal(n), n in 8..20, and of
    certify_three_lines for small orbit data: N = 1 with entries <= 3, and
    ((1,1), (1,1)).  It is the only workload that calls intpoly.resultant,
    intpoly.irreducible_mod_p and the strict evidence functions.  The other
    N = 2 orbit data with entries <= 3 take 1 to 23 s each in strict mode;
    with them a run holds one pass, and the tail becomes a single sample of
    whichever item lands at its rank, so they are left out by size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from siegelcert import certifier, cuspidal, intpoly, pipeline, report
from siegelcert.threelines import OrbitData

POOL_SEED = 2015
THREE_LINES_POOL_SIZE = 48


@dataclass(frozen=True)
class Item:
    """One CLI-equivalent call: kind is cuspidal, three-lines or theorem1."""

    kind: str
    args: tuple
    strict: bool = False

    @property
    def key(self) -> str:
        if self.kind == "three-lines":
            m, n = self.args
            text = "m=%s n=%s" % (",".join(map(str, m)), ",".join(map(str, n)))
        else:
            text = "%s=%d" % ("n" if self.kind == "cuspidal" else "k", self.args[0])
        return "%s %s%s" % (self.kind, text, " strict" if self.strict else "")


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[Item, ...]
    # the highest percentile with ten samples beyond it in two passes; fixed,
    # so that runs with more passes report the same statistic
    tail_pct: int
    expected_layers: tuple[str, ...]   # must record calls in a traced run


def three_lines_pool(size: int = THREE_LINES_POOL_SIZE,
                     seed: int = POOL_SEED) -> list[Item]:
    """Distinct orbit data, N uniform in {1,2,3}, entries uniform in 1..7.

    Only ((1,), (1,)) is excluded; no item is dropped for its outcome."""
    rng = random.Random(seed)
    items = [Item("three-lines", ((3, 4, 5), (2, 3, 4)))]
    while len(items) < size:
        n_lines = rng.choice((1, 2, 3))
        m = tuple(rng.randint(1, 7) for _ in range(n_lines))
        n = tuple(rng.randint(1, 7) for _ in range(n_lines))
        item = Item("three-lines", (m, n))
        if (m, n) != ((1,), (1,)) and item not in items:
            items.append(item)
    return items


def strict_pool() -> list[Item]:
    items = [Item("cuspidal", (n,), True) for n in range(8, 21)]
    small = [((m,), (n,)) for m in (1, 2, 3) for n in (1, 2, 3)]
    small.append(((1, 1), (1, 1)))
    items += [Item("three-lines", mn, True) for mn in small if mn != ((1,), (1,))]
    return items


_SEARCH = ("threelines.orbit_verify", "threelines.fixed_points_tl",
           "geometry.chart_jacobian", "search", "threelines.construct_targets",
           "threelines.salem_from_orbit", "salem.is_salem")
_CUSPIDAL = ("cohomology.action_matrix", "cohomology.spectral_data",
             "salem.is_salem", "intpoly.strip_cyclotomic", "roots.poly_roots",
             "certifier.certify_fixed_point", "geometry.chart_jacobian")
_THREE_LINES = ("threelines.salem_from_orbit", "threelines.orbit_verify",
                "threelines.fixed_points_tl", "geometry.chart_jacobian",
                "certifier.certify_fixed_point", "cohomology.action_matrix")
_STRICT = ("intpoly.resultant", "intpoly.irreducible_mod_p",
           "strictmode.evidence")
_REPORT = ("report.report_to_dict", "report.render")

WORKLOADS = {w.name: w for w in (
    Workload("cuspidal-sweep",
             tuple(Item("cuspidal", (n,)) for n in range(4, 61)),
             90, _CUSPIDAL + _REPORT),
    Workload("three-lines-sweep", tuple(three_lines_pool()), 80,
             _THREE_LINES + _REPORT),
    Workload("theorem1-search",
             (Item("theorem1", (3,)), Item("theorem1", (4,))),
             100, _SEARCH + _REPORT),
    Workload("strict-evidence", tuple(strict_pool()), 75, _STRICT + _REPORT),
)}


def pass_order(pool, rng: random.Random) -> list[Item]:
    """One pass over the pool, in an order drawn from rng."""
    order = list(pool)
    rng.shuffle(order)
    return order


def run_rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s/%d" % (workload, seed))


def clear_caches():
    """Empty the library's process-wide caches, as a fresh CLI call has them."""
    intpoly.cyclotomic.cache_clear()
    intpoly._totient_table.cache_clear()
    certifier._salem_verdict.cache_clear()


def run_item(item: Item) -> dict:
    """Certify, then report_to_dict and render, the way the CLI does.

    Module attributes are looked up at call time so that a traced run's
    wrappers see these calls."""
    if item.kind == "cuspidal":
        (n,) = item.args
        result = cuspidal.certify_cuspidal(n, strict=item.strict, workers=1)
        config = report.RunConfig("cuspidal", "cuspidal", {"n": n},
                                  strict=item.strict)
    elif item.kind == "three-lines":
        m, n = item.args
        result = pipeline.certify_three_lines(OrbitData(m, n),
                                              strict=item.strict, workers=1)
        config = report.RunConfig("three-lines", "three_lines",
                                  {"m": list(m), "n": list(n)},
                                  strict=item.strict)
    elif item.kind == "theorem1":
        (k,) = item.args
        result = pipeline.theorem1_pipeline(k, strict=item.strict, workers=1)
        config = report.RunConfig(
            "theorem1", "theorem1",
            {"k": k, "eps": pipeline.DEFAULT_EPS,
             "mn_cap": pipeline.DEFAULT_MN_CAP}, strict=item.strict)
    else:
        raise ValueError("unknown item kind %r" % item.kind)
    doc = report.report_to_dict(result, config)
    report.render(doc)
    return doc
