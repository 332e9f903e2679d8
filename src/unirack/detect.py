"""The classification engine: type-D and type-F witnesses, exhaustive
refutation certificates, and the combined verdict.

A type-D witness is built from the two orbits it asserts to be disjoint.
A type-F witness is built from its four representatives alone: every
family with those representatives holds their joint orbits, the orbits
under conjugation by all four, and the joint orbits are a family once they
are disjoint (see `check_f_family`).  All three family conditions are then
checked by brute force over the materialized subracks.  `recheck` checks a
witness again from the value a report writes, as the cache does before it
serves one, and reads nothing else.

Refutations scan index rows of the class's conjugation rack, index 0 the
fixed representative, and rebuild a witness they find from the matrices.
They rely on conjugation equivariance: conjugation by a group element is a
rack automorphism of the class carrying witnesses to witnesses, so a scan
that fixes one representative against the whole class is exhaustive for
pairs, and the compatibility graph of the type-F scan is vertex-transitive,
so the cliques through the representative stand for all of them.  By the
same argument the not-F scan decides type F: a 4-clique that survives its
joint test is the family it returns.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from .chevalley import (
    HypothesisError, FamilyRefusal, ab_property, torus_witness,
    torus_family, root_add,
)
from . import rack
from .ffield import make_field
from .matgroup import Mat, Orbit, orbit_under, subgroup_closure


class DetectError(ValueError):
    pass


class Budget(NamedTuple):
    "Deterministic search budgets; no wall-clock dependence anywhere."
    orbit_cap: int = 10**6
    sample_pairs: int = 64
    refute_pair_cap: int | None = None


SUBGROUP_CAP = 20000      # cap on a D witness's <r,s> and on block orbits
TORUS_U_LIMIT = 24        # U-members tried by the torus constructions
BLOCK_PAIRS = 200         # block-orbit pairs tried by product and block
CHECKPOINT_EVERY = 100000  # not-D pairs between two resume checkpoints


def mat_json(m: Mat) -> dict:
    return {"n": m.n, "field": [m.field.p, m.field.m], "rows": m.rows(),
            "text": m.text()}


def mat_from_json(mj) -> Mat:
    "The matrix that `mat_json` wrote."
    F = make_field(mj["field"][0], mj["field"][1])
    return Mat(F, mj["n"], [x for row in mj["rows"] for x in row])


# ---------------------------------------------------------------------------
# pair machinery


def collapse_eq_holds(r: Mat, s: Mat, rs: Mat | None = None,
                      sr: Mat | None = None) -> bool:
    """r > (s > (r > s)) == s; equivalent to (rs)^2 == (sr)^2.  A caller
    that has formed the products rs and sr passes them, so that each
    product is formed once."""
    ri, si = r.inverse(), s.inverse()
    rs = r * s if rs is None else rs
    sr = s * r if sr is None else sr
    inner = rs * ri
    inner = s * inner * si
    inner = r * inner * ri
    holds = inner == s
    squares_equal = rs ** 2 == sr ** 2
    if holds != squares_equal:
        raise DetectError("group identity violated; arithmetic is broken")
    return holds


class DWitness(NamedTuple):
    """A verified type-D witness: r, s in one class with disjoint <r,s>-orbits
    and the collapse equation violated.

    The union of the two orbits needs no product check: both orbits lie in
    <r,s> and are stable under conjugation by it, so x > y lies in the orbit
    of y for all x, y in the union.  The union is therefore a decomposable
    subrack with the two disjoint orbits as its blocks."""
    r: Mat
    s: Mat
    orbit_sizes: tuple        # (|orbit of r|, |orbit of s|)
    subgroup_size: int | None
    strategy: str = "search"

    def to_json(self) -> dict:
        return {
            "kind": "witness_D",
            "r": mat_json(self.r),
            "s": mat_json(self.s),
            "orbit_sizes": list(self.orbit_sizes),
            "subgroup_size": self.subgroup_size,
            "strategy": self.strategy,
            "check": {"rs_squared": mat_json((self.r * self.s) ** 2),
                      "sr_squared": mat_json((self.s * self.r) ** 2)},
        }


class DPairResult(NamedTuple):
    kind: str                  # degenerate_commuting | degenerate_square |
    #                            witness | same_orbit | cap_exceeded; under
    #                            a cap, same_orbit once the r-orbit meets s
    witness: DWitness | None = None


def d_pair(r: Mat, s: Mat, cap: int = 10**6, subgroup_cap: int = SUBGROUP_CAP,
           strategy: str = "search") -> DPairResult:
    """Evaluate one candidate pair.

    degenerate if rs = sr or the collapse equation holds.  Otherwise the
    <r,s>-orbit of r is searched (without materializing the subgroup) until
    it meets s: orbits of one group are equal or disjoint, so meeting s
    means same_orbit, under a cap too if the search meets s before it
    outgrows the cap.  An orbit of r that ends without s makes the pair a
    witness, and only then is the orbit of s built, for its size.  Either
    orbit outgrowing `cap` is cap_exceeded.
    """
    if r.field is not s.field or r.n != s.n:
        raise DetectError("pair must live in one matrix group")
    if r == s:
        return DPairResult("degenerate_commuting")
    rs, sr = r * s, s * r
    if rs == sr:
        return DPairResult("degenerate_commuting")
    if collapse_eq_holds(r, s, rs, sr):
        return DPairResult("degenerate_square")
    orb_r = orbit_under(r, [r, s], cap=cap, stop=s)
    if orb_r.contains(s):
        return DPairResult("same_orbit")
    orb_s = orbit_under(s, [r, s], cap=cap) if orb_r.complete else None
    if orb_s is None or not orb_s.complete:
        return DPairResult("cap_exceeded")
    size = None
    if subgroup_cap:
        closure = subgroup_closure([r, s], cap=subgroup_cap)
        size = closure.size if closure.complete else None
    return DPairResult("witness", DWitness(
        r, s, (orb_r.size, orb_s.size), size, strategy))


# ---------------------------------------------------------------------------
# type-F families


class FWitness(NamedTuple):
    """Four mutually disjoint, mutually stable subracks with pairwise
    non-fixing representatives; all three conditions verified brute-force."""
    reps: tuple               # 4 Mats
    subracks: tuple           # 4 sorted packed tuples
    builder: str

    def check(self):
        """This witness if every family condition holds, otherwise an
        FFailure naming the first one violated, cheapest conditions first:
        each representative in its subrack, disjointness, non-fixing, then
        stability R_a > R_b = R_b for every ordered pair."""
        sets = [set(t) for t in self.subracks]
        for a in range(4):
            if self.reps[a].pack() not in sets[a]:
                return FFailure("membership")
        for a in range(4):
            for b in range(a + 1, 4):
                if sets[a] & sets[b]:
                    return FFailure("disjointness")
        for a in range(4):
            for b in range(4):
                if a != b:
                    x, y = self.reps[a], self.reps[b]
                    if x * y * x.inverse() == y:
                        return FFailure("fixing")
        F, n = self.reps[0].field, self.reps[0].n
        mats = [[Mat(F, n, tuple(p)) for p in t] for t in self.subracks]
        for a in range(4):
            for b in range(4):
                image = {(x * y * x.inverse()).pack()
                         for x in mats[a] for y in mats[b]}
                if image != sets[b]:
                    return FFailure("stability")
        return self

    def to_json(self) -> dict:
        return {
            "kind": "witness_F",
            "reps": [mat_json(m) for m in self.reps],
            "subrack_sizes": [len(t) for t in self.subracks],
            "builder": self.builder,
        }


class FFailure(NamedTuple):
    condition: str            # membership | disjointness | fixing | stability

    def __bool__(self):
        return False


def check_f_family(reps, builder: str):
    """Verify a 4-family from its representatives alone: R_a is the joint
    orbit of r_a, its orbit under conjugation by all four.

    Any family with these representatives has R_a containing that orbit,
    and the joint orbits are a family as soon as they are disjoint: each x
    in R_a is h > r_a for some h in H = <r_1, ..., r_4>, so phi_x lies in
    H and R_a > R_b = R_b.  The representatives therefore decide whether a
    family exists.  Returns an FWitness on success, otherwise an FFailure
    naming the violated condition; a joint orbit that outgrows the orbit
    cap raises DetectError.
    """
    reps = tuple(reps)
    if len(reps) != 4:
        raise DetectError("a type-F family has exactly 4 representatives")
    orbits = [orbit_under(r, reps) for r in reps]
    if not all(o.complete for o in orbits):
        raise DetectError("a joint orbit outgrew the orbit cap")
    return FWitness(reps, tuple(tuple(o.sorted_packed()) for o in orbits),
                    builder).check()


def recheck(value) -> bool:
    """Whether a verdict or refutation value, as a report writes it, holds
    when its witness is checked again from the value alone.  The witness of
    a verdict is its "witness" field; a refutation's value that is a
    witness is one itself.  A D witness must be rebuilt by `d_pair` with its
    stored orbit sizes, and an F witness must pass `check_f_family` with its
    stored builder and subrack sizes; a value with no witness holds.  A
    malformed value does not hold, and any other error is a fault of the
    check and propagates (ValueError covers the package's DetectError,
    GroupError and FieldError)."""
    try:
        w = value.get("witness", value)
        if w.get("kind") == "witness_D":
            res = d_pair(mat_from_json(w["r"]), mat_from_json(w["s"]),
                         subgroup_cap=0)
            return (res.kind == "witness"
                    and w["orbit_sizes"] == list(res.witness.orbit_sizes))
        if w.get("kind") == "witness_F":
            got = check_f_family([mat_from_json(m) for m in w["reps"]],
                                 w["builder"])
            return isinstance(got, FWitness) and w["subrack_sizes"] == [
                len(t) for t in got.subracks]
        return True
    except (LookupError, TypeError, AttributeError, ValueError):
        return False


def resume_holds(state, class_size: int) -> bool:
    """Whether a partial entry's resume state, as `refute_d` writes it, can
    resume the not-D scan of a class of `class_size` elements: its keys are
    exactly "next_index" and "stats", the stats count exactly what
    `refute_d` counts, every value is a non-negative int, 1 <= next_index
    <= class_size, and every pair before next_index is counted once, in one
    outcome.  A forged state that keeps these invariants still resumes."""
    if not isinstance(state, dict) or set(state) != {"next_index", "stats"}:
        return False
    nxt, stats = state["next_index"], state["stats"]
    if not isinstance(stats, dict) or set(stats) != {
            "class_size", "pairs", "degenerate", "same_orbit"}:
        return False
    if not all(type(v) is int and v >= 0 for v in (nxt, *stats.values())):
        return False
    return (1 <= nxt <= stats["class_size"] == class_size
            and stats["pairs"] == nxt - 1
            == stats["degenerate"] + stats["same_orbit"])


# ---------------------------------------------------------------------------
# certificates and refutations


class Certificate(NamedTuple):
    kind: str                 # not_D | not_F
    basis: str                # exhaustive | necessary-condition | sampled
    stats: dict
    scan_log: dict
    complete: bool = True
    resume_state: dict | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "verdict_basis": self.basis,
                "stats": self.stats, "scan_log": self.scan_log,
                "complete": self.complete}


EQUIVARIANCE_NOTE = ("fixed-representative scan; conjugation is a rack "
                     "automorphism of the class mapping witnesses to "
                     "witnesses, so pairs (r, s) with r fixed are exhaustive")


@functools.lru_cache(maxsize=1)
def _class_rows(orbit: Orbit):
    """The class as `orbit.mats()`, index 0 the fixed representative, and
    the row getter of its conjugation rack.  The class stays as the orbit's
    bytes: a Mat is made only for a seed row, the representative and a
    witness.  Kept for the last orbit, so that `classify` builds them once
    for both scans."""
    mats = orbit.mats()
    return mats, rack.conj_rows(mats)


def _pair_split(px, py, x: int, y: int) -> bool:
    """Whether x and y (x != y) lie in different orbits of <phi_x, phi_y>,
    the <x,y>-conjugation orbits that `d_pair` builds from the matrices.
    Like `d_pair`, the search stops as soon as the orbit of x meets y.  An
    orbit of indices never outgrows the class, so no orbit cap applies."""
    return rack.orbit((px, py), x, len(px), {y})[0] is not None


def refute_d(spec, orbit: Orbit, budget: Budget = Budget(), resume=None,
             checkpoint_cb=None):
    """Scan all pairs (rep, s) over the class; returns a not_D Certificate,
    or the DWitness if one turns up after all.

    The class is homogeneous, so fixing the canonical representative loses
    nothing (see EQUIVARIANCE_NOTE).  The pair (0, j) is degenerate iff
    0 > j = j or 0 > (j > (0 > j)) = j, and a witness iff j is outside the
    orbit of 0 under <phi_0, phi_j>.  A cap on the pairs evaluated in this
    call, not counting those a resume restores, downgrades the certificate
    to sampled and records a resume state; the orbit cap does not apply
    (see `_pair_split`).  `spec` is not read; it is accepted because the
    benchmark's library tasks (perfbench/tasks.py) pass it.
    """
    mats, row = _class_rows(orbit)
    rep, r0 = mats[0], row(0)
    stats = {"class_size": len(mats), "pairs": 0, "degenerate": 0,
             "same_orbit": 0}
    start = 0
    if resume:
        start = resume["next_index"]
        stats.update(resume["stats"])
    restored = stats["pairs"]
    for j in range(start, len(mats)):
        if budget.refute_pair_cap is not None \
                and stats["pairs"] - restored >= budget.refute_pair_cap:
            state = {"next_index": j, "stats": dict(stats)}
            return Certificate("not_D", "sampled", stats,
                               {"note": "pair cap reached", **_d_log(rep)},
                               complete=False, resume_state=state)
        if j == 0:
            continue
        stats["pairs"] += 1
        k = r0[j]
        rj = row(j) if k != j else None
        if rj is None or r0[rj[k]] == j:
            stats["degenerate"] += 1
        elif _pair_split(r0, rj, 0, j):
            # both <r,s>-orbits lie in the class, so its size caps nothing
            res = d_pair(rep, mats[j], cap=len(mats), subgroup_cap=0)
            if res.kind != "witness":
                raise DetectError("rack rows and matrices disagree on a pair")
            return res.witness
        else:
            stats["same_orbit"] += 1
        if checkpoint_cb and stats["pairs"] % CHECKPOINT_EVERY == 0:
            checkpoint_cb({"next_index": j + 1, "stats": dict(stats)})
    return Certificate("not_D", "exhaustive", stats, _d_log(rep))


def _d_log(rep: Mat) -> dict:
    return {"fixed_representative": rep.text(), "equivariance": EQUIVARIANCE_NOTE}


def _edge(px, py, x: int, y: int) -> bool:
    """Compatibility-graph edge on the rows phi_x, phi_y: x > y != y and y
    outside the orbit of x under <phi_x, phi_y>."""
    return px[y] != y and _pair_split(px, py, x, y)


def _joint(perms, family) -> bool:
    """Necessary condition at the family level: the orbits of the members of
    `family` under the group generated by their rows `perms` stay pairwise
    disjoint (each stable subrack of a genuine family contains the orbit of
    its representative under conjugation by every family member).  Each
    orbit search stops as soon as it meets another family member.  Orbits
    under one group are equal or disjoint, so once no member's orbit holds
    another member, the orbits are pairwise disjoint.  Like `_pair_split`,
    it reads no orbit cap."""
    return all(rack.orbit(perms, a, len(perms[0]), set(family) - {a})[0]
               is not None for a in family)


def refute_f(orbit: Orbit):
    """Decide type F on the class: a not_F Certificate, or the FWitness of
    a 4-clique that survives the joint test.

    The compatibility graph has an edge (x, y) iff x > y != y and the
    <x,y>-orbits of x and y differ; a type-F family forces its four
    representatives to be pairwise adjacent (each O_{r_a}^{<r_a,r_b>} sits
    inside the stable subrack R_a), and moreover to have pairwise disjoint
    orbits under the subgroup generated by all four.  Every 4-clique of the
    pair-level graph is therefore re-verified at the joint level.  The
    conditions are also sufficient: a clique whose joint orbits are
    disjoint has those orbits as a family (see `check_f_family`), which is
    returned, and DetectError is raised if the matrices disagree with the
    rows.  The certificate keeps its necessary-condition basis: it asserts
    that no configuration satisfying the necessary conditions exists.

    The scan reads index rows of the class's conjugation rack: the row of
    the fixed representative 0 gives its neighbours, and their rows give
    the edges between them and the joint tests.
    """
    mats, row = _class_rows(orbit)
    r0 = row(0)
    stats = {"class_size": len(mats), "row_edges": 0, "pair_tests": 0,
             "pair_level_cliques": 0, "joint_tests": 0}
    neighbors = []
    for j in range(1, len(mats)):
        stats["pair_tests"] += 1
        # _edge is false where 0 > j = j, so the row of j is not read there
        if r0[j] != j and _edge(r0, row(j), 0, j):
            neighbors.append(j)
    stats["row_edges"] = m = len(neighbors)
    nrows = [row(x) for x in neighbors]
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            stats["pair_tests"] += 1
            if _edge(nrows[i], nrows[j], neighbors[i], neighbors[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    # candidate 4-cliques through rep = triangles inside the neighborhood;
    # edges are pruned by the triple-level joint test, survivors re-verified
    # at the four-element level
    stats["triple_pruned_edges"] = 0
    for i in range(m):
        ai = adj[i]
        if not ai:
            continue
        for j in range(i + 1, m):
            if not (ai >> j & 1):
                continue
            common = ai & adj[j] & ~((1 << (j + 1)) - 1)
            if not common:
                continue
            if not _joint((r0, nrows[i], nrows[j]),
                          (0, neighbors[i], neighbors[j])):
                stats["triple_pruned_edges"] += 1
                continue
            rest = common
            while rest:
                k = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                stats["pair_level_cliques"] += 1
                stats["joint_tests"] += 1
                family = (0, neighbors[i], neighbors[j], neighbors[k])
                if _joint((r0, nrows[i], nrows[j], nrows[k]), family):
                    got = check_f_family([mats[x] for x in family], "clique")
                    if not got:
                        raise DetectError("rack rows and matrices disagree "
                                          "on a family")
                    return got
    # Only cliques through the fixed representative are enumerated.  The
    # graph is vertex-transitive (conjugation by the group is a rack
    # automorphism of the class), so every other 4-clique is a translate of
    # one of them: one row computed, the rest translated.
    log = {"fixed_representative": mats[0].text(),
           "note": ("edge (x, y) iff x > y != y and the <x,y>-classes of x "
                    "and y differ; every pair-level 4-clique fails the "
                    "joint-orbit condition"),
           "equivariance": "one row computed, the rest translated"}
    return Certificate("not_F", "necessary-condition", stats, log)


# ---------------------------------------------------------------------------
# find strategies


class ClassContext(NamedTuple):
    """Everything classify needs about one split class.  `entry` is the
    class itself (a `catalog.ClassEntry`): `entry.contains(x)` tests
    membership, and its orbit is built only when a strategy or a scan
    reads it."""
    spec: object
    rep: Mat
    entry: object
    u_members: tuple = ()
    model: object = None
    blocks: tuple = ()

    @property
    def orbit(self) -> Orbit:
        return self.entry.orbit


def _supp_pairs(model, word):
    "Unordered support pairs whose sum is a root, non-degenerate, in order."
    rs = model.rs
    supp = sorted(word.support(), key=lambda r: (rs.height(r), r))
    out = []
    for i, a in enumerate(supp):
        for b in supp[i + 1:]:
            if not rs.is_root(root_add(a, b)):
                continue
            if rs.is_degenerate_pair(a, b, model.field.p):
                continue
            out.append((a, b))
    return out


def find_d_torus(ctx: ClassContext, budget: Budget, seed: int) -> DWitness | None:
    "Torus conjugate witness from the support condition (odd q)."
    model = ctx.model
    if model is None or ctx.spec.q % 2 == 0:
        return None
    for u in ctx.u_members[:TORUS_U_LIMIT]:
        word = model.factorize(u)
        for a, b in _supp_pairs(model, word):
            if not ab_property(model, word, a, b):
                continue
            try:
                w = torus_witness(a, b, ctx.spec.q, model=model)
            except HypothesisError:
                continue
            t = w.torus.mat
            s = t * u * t.inverse()
            res = d_pair(u, s, cap=budget.orbit_cap, strategy="torus")
            if res.kind == "witness":
                return res.witness
    return None


def find_f_torus(ctx: ClassContext, budget: Budget, seed: int) -> FWitness | None:
    """Torus-translate 4-families: the rank-2 diagonal family for even q > 2
    regular classes, and the generic family when q is large enough."""
    model = ctx.model
    if model is None:
        return None
    q = ctx.spec.q
    F = model.field
    # rank-2 regular family, even q > 2
    if q % 2 == 0 and q > 2 and model.rank == 2:
        a1, a2 = model.rs.simple
        ts = [model.torus((((2, 0), F.pow(F.generator, a)),
                           ((0, 2), F.pow(F.generator, b)))).mat
              for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
        for u in ctx.u_members:
            word = model.factorize(u)
            supp = word.support()
            if a1 not in supp or a2 not in supp or root_add(a1, a2) in supp:
                continue
            reps = [t * u * t.inverse() for t in ts]
            got = check_f_family(reps, "torus_translates")
            if isinstance(got, FWitness):
                return got
    if q not in (2, 3, 4, 5, 7):
        for u in ctx.u_members[:TORUS_U_LIMIT]:
            word = model.factorize(u)
            for a, b in _supp_pairs(model, word):
                if not ab_property(model, word, a, b):
                    continue
                try:
                    fam = torus_family(a, b, q, "chevalley", model=model)
                except (FamilyRefusal, HypothesisError):
                    continue
                reps = [t * u * t.inverse() for t in fam.torus_mats]
                got = check_f_family(reps, "torus_translates")
                if isinstance(got, FWitness):
                    return got
    return None


def _eq21_pair_in_orbit(orbit_mats, limit):
    "First (a, b) in the orbit with the collapse equation violated."
    mats = orbit_mats
    a = mats[0]
    for b in mats[1:limit]:
        if a * b != b * a and not collapse_eq_holds(a, b):
            return a, b
    for a in mats[1:limit]:
        for b in mats[1:limit]:
            if a != b and a * b != b * a and not collapse_eq_holds(a, b):
                return a, b
    return None


def find_d_product(ctx: ClassContext, budget: Budget, seed: int) -> DWitness | None:
    """Product-rack witness: a collapse-violating pair in one block times a
    distinct commuting pair in the complement (the two-factor construction
    for products of racks)."""
    for blk in ctx.blocks:
        if blk.component.is_identity() or blk.rest.is_identity():
            continue
        x_orb = orbit_under(blk.component, blk.gens, cap=SUBGROUP_CAP)
        if not x_orb.complete:
            continue
        x_mats = list(x_orb.mats())
        pair = _eq21_pair_in_orbit(x_mats, BLOCK_PAIRS)
        if pair is None:
            continue
        y_orb = orbit_under(blk.rest, blk.comp_gens, cap=budget.orbit_cap)
        if not y_orb.complete:
            continue
        y1 = blk.rest
        y2 = next((y for y in y_orb.mats() if y != y1 and y * y1 == y1 * y), None)
        if y2 is None:
            continue
        x1, x2 = pair
        r, s = x1 * y1, x2 * y2
        res = d_pair(r, s, cap=budget.orbit_cap, strategy="product")
        if res.kind == "witness" and ctx.entry.contains(r) \
                and ctx.entry.contains(s):
            return res.witness
    return None


def find_d_block(ctx: ClassContext, budget: Budget, seed: int) -> DWitness | None:
    """Witness embedded from a single block: a type-D pair of the block class
    times the untouched rest of the representative."""
    for blk in ctx.blocks:
        if blk.component.is_identity():
            continue
        x_orb = orbit_under(blk.component, blk.gens, cap=SUBGROUP_CAP)
        if not x_orb.complete:
            continue
        a = blk.component
        count = 0
        for b in x_orb.mats():
            if b == a:
                continue
            count += 1
            if count > BLOCK_PAIRS:
                break
            r, s = a * blk.rest, b * blk.rest
            res = d_pair(r, s, cap=budget.orbit_cap, strategy="block")
            if res.kind == "witness" and ctx.entry.contains(r) \
                    and ctx.entry.contains(s):
                return res.witness
    return None


def _sampled_candidates(ctx: ClassContext, seed: int, sample_pairs: int):
    """The candidates s of `find_d_sampled`, each new one once, built as
    they are asked for: the conjugates of the representative by each
    generator g and by the products gh of two of the first six, then a
    seeded sample of the class, whose orbit is read only from there."""
    rep = ctx.rep
    gens = sorted(ctx.spec.generators)
    seen = {rep.pack()}

    def fresh(packed: bytes) -> bool:
        new = packed not in seen
        seen.add(packed)
        return new

    conj = []                     # h rep h^-1, for each generator h
    for g in gens:
        s = g * rep * g.inverse()
        conj.append(s)
        if fresh(s.pack()):
            yield s
    for g in gens[:6]:
        for h_conj in conj[:6]:
            s = g * h_conj * g.inverse()          # (gh) rep (gh)^-1
            if fresh(s.pack()):
                yield s
    packed = ctx.orbit.sorted_packed()
    rng = random.Random(seed)
    for _ in range(sample_pairs):
        b = packed[rng.randrange(len(packed))]
        if fresh(b):
            yield Mat(rep.field, rep.n, tuple(b))


def find_d_sampled(ctx: ClassContext, budget: Budget, seed: int) -> DWitness | None:
    """Deterministic cheap candidates (conjugates of the representative by
    generators and by products of two) followed by a seeded sample of the
    class, tried in order up to the first witness."""
    for s in _sampled_candidates(ctx, seed, budget.sample_pairs):
        res = d_pair(ctx.rep, s, cap=budget.orbit_cap, strategy="sampled")
        if res.kind == "witness":
            return res.witness
    return None


def strategies() -> tuple:
    """The search strategies in pipeline order: (name, verdict kind, finder,
    log line on a miss).  The torus constructions give type D for odd q and
    type-F families for even q; then come the product and single-block
    constructions and a seeded sample.  The finders are looked up when this
    is called, so a rebound module attribute takes effect."""
    return (
        ("torus", "D", find_d_torus, "torus D: no applicable support pair"),
        ("torus", "F", find_f_torus, "torus F: no applicable family"),
        ("product", "D", find_d_product,
         "product: no block split with both pair kinds"),
        ("block", "D", find_d_block, "block: no embedded witness"),
        ("sampled", "D", find_d_sampled, "sampled: no witness among candidates"),
    )


# ---------------------------------------------------------------------------
# the pipeline


class Verdict(NamedTuple):
    kind: str                           # D | F | cthulhu | unknown
    witness: DWitness | FWitness | None = None
    cert_not_d: Certificate | None = None
    cert_not_f: Certificate | None = None
    strategy: str = ""
    seed: int = 0
    logs: tuple = ()

    def to_json(self) -> dict:
        out = {"verdict": self.kind, "strategy": self.strategy, "seed": self.seed,
               "logs": list(self.logs)}
        if self.witness:
            out["witness"] = self.witness.to_json()
        if self.cert_not_d:
            out["cert_not_d"] = self.cert_not_d.to_json()
        if self.cert_not_f:
            out["cert_not_f"] = self.cert_not_f.to_json()
        if self.kind == "cthulhu":
            out["verdict_basis"] = [self.cert_not_d.basis, self.cert_not_f.basis]
        return out


def classify(ctx: ClassContext, budget: Budget = Budget(), seed: int = 0,
             resume=None, checkpoint_cb=None) -> Verdict:
    """The pipeline: the search strategies of `strategies()` in order, up to
    the first witness, then the exhaustive refutations.  cthulhu only when
    the not_D certificate is exhaustive and the not_F certificate holds at
    necessary-condition grade; F, with strategy "clique", when the not-F
    scan returns a family instead.
    """
    logs = []
    for name, kind, finder, miss in strategies():
        w = finder(ctx, budget, seed)
        if w:
            return Verdict(kind, w, strategy=name, seed=seed, logs=tuple(logs))
        logs.append(miss)

    got = refute_d(ctx.spec, ctx.orbit, budget, resume=resume,
                   checkpoint_cb=checkpoint_cb)
    if isinstance(got, DWitness):
        return Verdict("D", got, strategy="exhaustive", seed=seed,
                       logs=tuple(logs))
    cert_d = got
    if not cert_d.complete:
        return Verdict("unknown", cert_not_d=cert_d, strategy="budget",
                       seed=seed, logs=tuple(logs + ["refute_d capped"]))

    got_f = refute_f(ctx.orbit)
    if isinstance(got_f, FWitness):
        return Verdict("F", got_f, strategy="clique", seed=seed,
                       logs=tuple(logs))
    return Verdict("cthulhu", cert_not_d=cert_d, cert_not_f=got_f,
                   strategy="refutation", seed=seed, logs=tuple(logs))


# ---------------------------------------------------------------------------
# twisted rank-2 family and spot checks


def su3_f_family(q: int) -> FWitness:
    "The 4-family for the regular twisted rank-2 class, fully materialized."
    from .chevalley import su3_model
    su3 = su3_model(q)
    fam = torus_family(None, None, q, "su3")
    u = su3.regular_rep()
    reps = [t * u * t.inverse() for t in fam.torus_mats]
    got = check_f_family(reps, "torus_translates")
    if not isinstance(got, FWitness):
        raise DetectError(f"twisted family failed: {got}")
    return got


def group_identity_spot_check(spec, rng, n_pairs: int = 10000) -> bool:
    "The collapse equation vs squared products, on random pairs."
    from .matgroup import random_element
    for _ in range(n_pairs):
        r = random_element(spec, rng, length=8)
        s = random_element(spec, rng, length=8)
        collapse_eq_holds(r, s)    # raises if the equivalence ever fails
    return True
