"""Seeded request generators with known answers, and the answer checks.

Everything here is plain Python: no input is made or graded by calling
frobranch.  Each request is the argv of one CLI invocation (always with
`--format json`) plus the facts its report must satisfy.  The facts come
from theory, not from the program:

- a product of r pairwise distinct linear forms in two variables has r
  branches, and so has the coordinate-axes ring in r variables;
- a "star" complete intersection (each generator a product of general
  linear forms) is the union of prod(deg) distinct rational points, so it
  has that many branches;
- x^p*y - x*y^p vanishes at every GF(p)-point of P^1, so no GF(p)-linear
  form reduces it and the search has to extend scalars to s = 2;
- every numerical semigroup ring is F-nilpotent, with e0 the least e for
  which p^e lies in the semigroup (its saturation is N, generated by 1);
- the degree-2 Veronese in n >= 3 variables with one mixed monomial
  removed (the pinched Veronese) is F-nilpotent exactly when p = 2;
- a normal semigroup has e0 = 0, and replacing a vertex h of one by m*h
  and (m+1)*h gives e0 = least e with p^e in <m, m+1>;
- Fte(I) <= e0, and I is contained in its tight closure, while nothing
  below min(I) lies in it.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

E_MAX = 12  # the CLI's default --e-max; verdicts past it are undetermined


@dataclass
class Request:
    argv: list
    family: str
    expect: dict = field(default_factory=dict)


# -- polynomials over GF(p), as {exponent tuple: coefficient} ---------------


def _poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _poly_text(f: dict, names) -> str:
    terms = []
    for m in sorted(f, reverse=True):
        factors = [str(f[m])] if f[m] != 1 else []
        for name, e in zip(names, m):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _product_text(forms, names, p: int) -> str:
    n = len(names)
    poly = {(0,) * n: 1}
    for form in forms:
        lin = {tuple(int(i == j) for j in range(n)): c % p for i, c in enumerate(form) if c % p}
        poly = _poly_mul(poly, lin, p)
    return _poly_text(poly, names)


def _normalize(v, p: int) -> tuple:
    """Projective representative: first nonzero coordinate scaled to 1."""
    lead = next(c for c in v if c % p)
    inv = pow(lead, p - 2, p)
    return tuple(c * inv % p for c in v)


def _kernel_point(rows, p: int) -> Optional[tuple]:
    """The point cut out by n-1 independent linear forms in n variables
    (generalized cross product), or None when they are dependent."""
    n = len(rows[0])
    point = []
    for j in range(n):
        minor = [[r[k] for k in range(n) if k != j] for r in rows]
        point.append((-1) ** j * _det(minor) % p)
    if not any(point):
        return None
    return _normalize(point, p)


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


# -- curve families ------------------------------------------------------------


def _distinct_lines(rng: random.Random, p: int, r: int) -> list:
    """r pairwise distinct GF(p)-lines a*x + b*y, none through [1:-1], so
    the first reduction candidate x + y always works."""
    pool = [(1, b) for b in range(p) if (1 - b) % p] + [(0, 1)]
    return rng.sample(pool, r)


def plane_curve(rng, p: int, r: int, mode: str, ext_s: int = 1) -> Request:
    lines = _distinct_lines(rng, p, r)
    text = _product_text(lines, ("x", "y"), p)
    argv = [mode, "--p", str(p)]
    if ext_s > 1:
        argv += ["--ext-s", str(ext_s)]
    if mode == "branches":
        argv += ["--vars", "x,y"]
        expect = {"branches": r, "oracle": True, "scalar_extension": 1}
    else:
        expect = {"hypersurface": r}
    return Request(argv + ["--rel", text, "--format", "json"], f"plane-{mode}", expect)


def axes(p: int, d: int, ext_s: int = 1) -> Request:
    names = [f"x{i}" for i in range(1, d + 1)]
    argv = ["branches", "--p", str(p)]
    if ext_s > 1:
        argv += ["--ext-s", str(ext_s)]
    argv += ["--vars", ",".join(names)]
    for i, j in itertools.combinations(range(d), 2):
        argv += ["--rel", f"{names[i]}*{names[j]}"]
    expect = {"branches": d, "oracle": True, "scalar_extension": 1}
    return Request(argv + ["--format", "json"], f"axes-{d}", expect)


def star(rng, p: int, degrees) -> Request:
    """Complete intersection in len(degrees)+1 variables whose generators
    are products of general linear forms; rejection-sampled until the
    prod(degrees) points are distinct, every point is cut transversally,
    and none lies on x1 + ... + xn = 0 (so the first reduction candidate
    works and the cost does not depend on the seed's luck)."""
    n = len(degrees) + 1
    names = ("x", "y", "z", "w", "v")[:n]
    while True:
        groups = [[tuple(rng.randrange(p) for _ in range(n)) for _ in range(d)] for d in degrees]
        forms = [f for g in groups for f in g]
        if any(not any(f) for f in forms):
            continue
        if len({_normalize(f, p) for f in forms}) < len(forms):
            continue
        points = []
        for choice in itertools.product(*groups):
            pt = _kernel_point(list(choice), p)
            if pt is None:
                break
            points.append(pt)
        else:
            if len(set(points)) == len(points) and all(sum(pt) % p for pt in points):
                break
    argv = ["branches", "--p", str(p), "--vars", ",".join(names)]
    for g in groups:
        argv += ["--rel", _product_text(g, names, p)]
    count = 1
    for d in degrees:
        count *= d
    expect = {"branches": count, "oracle": False}
    tag = "x".join(map(str, degrees))
    return Request(argv + ["--format", "json"], f"star-{tag}", expect)


def rational_points_curve(p: int) -> Request:
    argv = ["branches", "--p", str(p), "--vars", "x,y", "--rel", f"x^{p}*y - x*y^{p}", "--format", "json"]
    expect = {"branches": p + 1, "oracle": True, "scalar_extension": 2}
    return Request(argv, "all-points", expect)


# -- semigroup families ----------------------------------------------------------


def apery_set(gens) -> list:
    """Least element of <gens> in each residue class modulo min(gens)
    (Dijkstra over residues); requires gcd(gens) == 1."""
    a = min(gens)
    dist = [None] * a
    dist[0] = 0
    heap = [(0, 0)]
    done = [False] * a
    while heap:
        w, r = heapq.heappop(heap)
        if done[r]:
            continue
        done[r] = True
        for g in gens:
            nw, nr = w + g, (r + g) % a
            if dist[nr] is None or nw < dist[nr]:
                dist[nr] = nw
                heapq.heappush(heap, (nw, nr))
    return dist


def in_numerical(apery, k: int) -> bool:
    return k >= 0 and k >= apery[k % len(apery)]


def numerical_e0(apery, p: int) -> int:
    e = 0
    while not in_numerical(apery, p**e):
        e += 1
    return e


def numerical_gens(rng, top: int, k: int, width: int) -> list:
    """k generators, gcd 1, the largest exactly `top` and the others in
    [top - width, top), so the program's max^2 gap table and its gap count
    vary little with the seed."""
    while True:
        gens = sorted(set(rng.sample(range(top - width, top), k - 1)) | {top})
        if len(gens) == k and gcd(*gens) == 1:
            return gens


def fnilpotent_numerical(rng, p: int, top: int, k: int, undetermined: bool, width: int) -> Request:
    """A numerical semigroup whose e0 at p is above (undetermined=True) or
    within the default exponent cap.  Above it the program answers
    `undetermined`, a known defect that the benchmark counts as failed."""
    for _ in range(10_000):
        gens = numerical_gens(rng, top, k, width)
        e0 = numerical_e0(apery_set(gens), p)
        if (e0 > E_MAX) == undetermined:
            break
    else:
        raise ValueError(f"no {k}-generated semigroup up to {top} with that e0 class at p={p}")
    argv = ["fnilpotent", "--p", str(p), "--gens", ",".join(map(str, gens)), "--format", "json"]
    return Request(argv, f"numerical-{top}", {"verdict": "f-nilpotent", "e0": e0})


def pinched_veronese(rng, p: int, n: int) -> Request:
    """Degree-2 Veronese in n >= 3 variables minus one mixed monomial."""
    monos = [m for m in itertools.product(range(3), repeat=n) if sum(m) == 2]
    mixed = [m for m in monos if max(m) == 1]
    removed = rng.choice(mixed)
    gens = [m for m in monos if m != removed]
    rng.shuffle(gens)
    expect = {"verdict": "f-nilpotent", "e0": 1} if p == 2 else {"verdict": "not-f-nilpotent"}
    return Request(_semigroup_argv("fnilpotent", p, n, gens), f"pinched-{n}", expect)


def vertex_pinched_veronese(rng, p: int, n: int, d: int, ms) -> Request:
    """Degree-d Veronese in n variables with vertex h_i = d*e_i replaced by
    m_i*h_i and (m_i+1)*h_i for each m_i in ms (m_i = 1 keeps the vertex).
    The saturation is the Veronese itself, each h_i needs the least e with
    p^e in <m_i, m_i+1>, and e0 is the largest of these."""
    monos = [mo for mo in itertools.product(range(d + 1), repeat=n) if sum(mo) == d]
    pinched = rng.sample(range(n), len(ms))
    gens = [mo for mo in monos if not any(mo[i] == d for i in pinched)]
    for i, m in zip(pinched, ms):
        h = tuple(d * (j == i) for j in range(n))
        gens += [tuple(m * x for x in h), tuple((m + 1) * x for x in h)]
    rng.shuffle(gens)
    e0 = max(numerical_e0(apery_set([m, m + 1]), p) if m > 1 else 0 for m in ms)
    tag = "".join(map(str, ms))
    return Request(
        _semigroup_argv("fnilpotent", p, n, gens), f"vertex-{n}d{d}m{tag}",
        {"verdict": "f-nilpotent", "e0": e0},
    )


def _semigroup_argv(mode, p, n, gens):
    text = f"{n}: " + "; ".join(",".join(map(str, g)) for g in gens)
    return [mode, "--p", str(p), "--gens", text, "--format", "json"]


def _small_numerical(rng):
    while True:
        gens = sorted(rng.sample(range(4, 40), rng.randrange(2, 5)))
        if gcd(*gens) == 1:
            return gens, apery_set(gens)


def fte_request(rng, p: int) -> Request:
    while True:
        gens, apery = _small_numerical(rng)
        if numerical_e0(apery, p) <= E_MAX:
            break
    members = [k for k in range(1, 3 * max(gens)) if in_numerical(apery, k)]
    ideal = sorted(rng.sample(members[:12], 2))
    argv = ["fte", "--p", str(p), "--gens", ",".join(map(str, gens)),
            "--ideal", ";".join(map(str, ideal)), "--format", "json"]
    return Request(argv, "fte", {"verdict": "f-nilpotent", "e0": numerical_e0(apery, p), "fte_le_e0": True})


def tight_member_request(rng, p: int) -> Request:
    while True:
        gens, apery = _small_numerical(rng)
        if numerical_e0(apery, p) <= E_MAX:
            break
    members = [k for k in range(1, 4 * max(gens)) if in_numerical(apery, k)]
    ideal = sorted(rng.sample(members[2:10], 2))
    below = [k for k in members if k < ideal[0]]
    if below and rng.random() < 0.5:
        element, member = rng.choice(below), False
    else:
        element = ideal[0] + rng.choice(members[:6])
        member = True
    argv = ["tight-member", "--p", str(p), "--gens", ",".join(map(str, gens)),
            "--ideal", ";".join(map(str, ideal)), "--element", str(element), "--format", "json"]
    return Request(argv, "tight-member", {"verdict": "f-nilpotent", "e0": numerical_e0(apery, p), "member": member})


# -- workloads -------------------------------------------------------------------
#
# The kinds, sizes and primes of the requests are fixed per workload, so a
# run's cost and its latency percentiles do not depend on the seed: the
# seed picks coefficients, generators and order.  p50 and p90 of each
# workload land inside a band of requests of similar cost (noted below),
# not on the edge between two bands.

PRIMES = (2, 3, 5, 7, 31, 101)

# the fields of order 25..350 with s >= 2
EXT_FIELDS = (
    (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (11, 2),
    (5, 3), (2, 7), (13, 2), (3, 5), (2, 8), (17, 2), (7, 3),
)


def curves(rng: random.Random, tiny: bool = False) -> list:
    """Branch counts over prime fields: cheap plane curves (p50 falls among
    the `branches` ones), then 3- and 4-variable stars and axes rings.
    p90 falls inside the nine (5,5) stars, below a tail of d = 5, 6 axes
    and 4-variable stars."""
    plane = [(p, r) for p in PRIMES for r in range(1, min(p, 8) + 1)] + [(31, 8), (101, 8)]
    if tiny:
        plane = plane[:2]
    out = [plane_curve(rng, p, r, mode) for mode in ("branches", "hypersurface") for p, r in plane]
    stars = {(2, 2): 1} if tiny else {
        (2, 2): 3, (2, 3): 3, (3, 3): 4, (3, 4): 4, (4, 4): 4, (4, 5): 3, (5, 5): 9,
        (2, 2, 2): 1, (3, 2, 2): 1, (3, 3, 2): 1,
    }
    for degrees, count in stars.items():
        out += [star(rng, rng.choice((31, 101)), degrees) for _ in range(count)]
    rings = [(2, 3)] if tiny else [(2, 3), (5, 3), (101, 3), (3, 4), (7, 4), (31, 4), (2, 5), (3, 5), (2, 6)]
    out += [axes(p, d) for p, d in rings]
    rng.shuffle(out)
    return out


def extension(rng: random.Random, tiny: bool = False) -> list:
    """Forced GF(p^s) requests, twelve per field, plus the all-points
    curves whose reduction needs s = 2.  The first request to touch a field
    builds its tables (cold); the rest reuse them (warm).  Each field's
    first request is of one fixed kind, so the cold costs do not depend on
    the order the seed picks.  p50 falls among the warm plane curves and
    p90 inside the fourteen warm 4-axes rings, below a tail of cold first
    uses of the larger fields."""
    fields = EXT_FIELDS[:2] if tiny else EXT_FIELDS
    points = (2, 3) if tiny else (2, 3, 5, 7, 11, 13)
    kinds = ["plane", "axes3"] if tiny else ["plane"] * 9 + ["axes3", "axes3", "axes4"]
    groups = {}
    for p in points:
        groups.setdefault((p, 2), []).append(rational_points_curve(p))
    for p, s in fields:
        reqs = groups.setdefault((p, s), [])
        for i, kind in enumerate(kinds):
            if kind == "plane":
                reqs.append(plane_curve(rng, p, 1 + i % min(p, 3), "branches", ext_s=s))
            else:
                reqs.append(axes(p, int(kind[-1]), ext_s=s))
    return _place_openers(rng, groups)


def _place_openers(rng: random.Random, groups: dict) -> list:
    """Shuffle all requests, then swap each group's opener (its first
    request) into the group's earliest position."""
    flat = [(key, i) for key, reqs in groups.items() for i in range(len(reqs))]
    rng.shuffle(flat)
    first = {}
    for pos, (key, _) in enumerate(flat):
        first.setdefault(key, pos)
    for key, pos in first.items():
        opener = flat.index((key, 0))
        flat[pos], flat[opener] = flat[opener], flat[pos]
    return [groups[key][i] for key, i in flat]


def semigroups(rng: random.Random, tiny: bool = False) -> list:
    """Semigroup-layer requests only, in cost bands of fixed size: 48 fte,
    tight-member and small numerical requests (cheapest), 22 around 20 ms
    (p50 falls in their middle), 22 around 50 ms, 12 at 100-200 ms, the
    five (3,3)-pinched Veronese in dimension 3 (where p90 falls), and a
    tail of 8 dimension-4 and large numerical requests.  The two large
    numerical semigroups at p = 2, 3 have e0 above the default cap and come
    back `undetermined`, a known defect counted as failed.

    The large numerical requests, whose gap tables set the peak RSS, sit at
    fixed, evenly spaced positions, largest first, and the seed shuffles
    only the rest.  Shuffled among the others, a 2400 request shortly
    before the 3000 one left freed but unreturned memory that the 3000
    table was stacked on, which raised the peak by about 24 MB on some
    seeds and not others."""
    primes = (2, 3, 5, 7)
    out = []
    large = [(1000, 2, 3, True)] if tiny else [
        (3000, 2, 2, True), (2400, 2, 3, True), (1800, 3, 5, False), (1200, 3, 7, False),
    ]
    heavy = [fnilpotent_numerical(rng, p, top, k, undetermined, width=40) for top, k, p, undetermined in large]
    tops = (30,) if tiny else (30, 40, 150, 150, 300, 300, 600)
    for top in tops:
        out += [
            fnilpotent_numerical(rng, p, top, 3 + (i % 2), False, width=max(8, top // 8))
            for i, p in enumerate(primes)
        ]
    for n in ((3,) if tiny else (3, 3, 4)):
        out += [pinched_veronese(rng, p, n) for p in primes]
    vertex = [(2, 4, (3,), 1)] if tiny else [
        (2, 4, (2,), 2), (2, 4, (3,), 2), (2, 4, (5,), 2), (2, 4, (2, 3), 4), (2, 4, (3, 5), 4),
        (3, 2, (2,), 6), (3, 3, (1,), 2), (3, 3, (2,), 2), (3, 2, (3, 3), 5), (3, 3, (2, 2), 1),
        (4, 2, (1,), 1), (4, 2, (2,), 2),
    ]
    for n, d, ms, count in vertex:
        out += [vertex_pinched_veronese(rng, primes[i % 4], n, d, ms) for i in range(count)]
    for i in range(2 if tiny else 20):
        out.append(fte_request(rng, primes[i % 4]))
        out.append(tight_member_request(rng, primes[i % 4]))
    rng.shuffle(out)
    gap = (len(out) + len(heavy)) // len(heavy)
    for i, req in enumerate(heavy):
        out.insert(i * gap, req)
    return out


WORKLOADS = {"curves": curves, "extension": extension, "semigroups": semigroups}


def build(name: str, seed: int, tiny: bool = False) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)


# -- answer checks ---------------------------------------------------------------


def check(request: Request, exit_code: int, report: Optional[dict], error: Optional[str]):
    """(reason, known_defect) when the answer contradicts a fact, else None.

    A nonzero exit code or an exception is a failure.  `known_defect` marks
    the one failure class this benchmark expects today: an `undetermined`
    verdict on a numerical semigroup."""
    if error is not None or exit_code != 0 or report is None:
        return f"exit {exit_code}: {error or 'nonzero exit code'}", False
    res = report["results"]
    want = request.expect
    if "branches" in want:
        b = want["branches"]
        if (res["branches_formula"], res["branches_multiplicity"]) != (b, b) or res["consistent"] is not True:
            return f"expected {b} branches, got {res['branches_formula']}/{res['branches_multiplicity']}", False
        status = "match" if want["oracle"] else "no-oracle"
        if res["oracle_status"] != status or (want["oracle"] and res["oracle_branches"] != b):
            return f"oracle {res['oracle_status']} ({res['oracle_branches']}), expected {status}", False
        s = want.get("scalar_extension")
        if s is not None and res["reduction_scalar_extension"] != s:
            return f"reduction over s={res['reduction_scalar_extension']}, expected s={s}", False
    if "hypersurface" in want and res["branches"] != want["hypersurface"]:
        return f"expected {want['hypersurface']} branches, got {res['branches']}", False
    if "verdict" in want and res["verdict"] != want["verdict"]:
        known = res["verdict"] == "undetermined" and request.family.startswith("numerical")
        return f"verdict {res['verdict']}, expected {want['verdict']}", known
    if "e0" in want and res["e0"] != want["e0"]:
        return f"e0 {res['e0']}, expected {want['e0']}", False
    if want.get("fte_le_e0") and not res["fte"] <= res["e0"]:
        return f"fte {res['fte']} exceeds e0 {res['e0']}", False
    if "member" in want and res["member"] != want["member"]:
        return f"member {res['member']}, expected {want['member']}", False
    return None
